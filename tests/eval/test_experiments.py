"""Tests for the experiment runners (small sizes to stay fast)."""

from repro.circuit.benchmarks import get_benchmark
from repro.eval.batch import RunSpec, _compile_stage, execute_spec, run_grid
from repro.eval.experiments import (
    FIG13_SHAPES,
    PAPER_TABLE2,
    TABLE_BENCHMARKS,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fidelity,
    run_table1,
)
from repro.hardware.resource_state import FOUR_STAR


def _compiled(spec):
    """The compile stage of *spec*: the program and its config."""
    circuit = get_benchmark(spec.benchmark, spec.num_qubits, seed=spec.seed)
    return _compile_stage(spec, circuit)[0]


class TestTable1:
    def test_full_grid(self):
        rows = run_table1()
        # Table 1 covers the paper's rows; the compile grid's extra
        # 100-qubit scaling rows have no paper counterpart
        assert len(rows) == len(PAPER_TABLE2)
        assert len(rows) == sum(
            1 for key in TABLE_BENCHMARKS if key in PAPER_TABLE2
        )

    def test_matches_paper_exactly(self):
        for name, areas in run_table1():
            key_found = False
            for (bench, n), _ in PAPER_TABLE2.items():
                if bench == name and n == areas.num_qubits:
                    key_found = True
            assert key_found
        # spot check paper values
        by_key = {(n, a.num_qubits): a for n, a in run_table1()}
        assert by_key[("QFT", 16)].cluster_side == 7
        assert by_key[("BV", 100)].physical_side == 43


class TestExecuteSpec:
    def test_improvements_positive(self):
        record = execute_spec(RunSpec("BV", 16))
        assert record.depth_improvement > 1
        assert record.fusion_improvement > 1

    def test_label(self):
        assert execute_spec(RunSpec("BV", 16)).label == "BV-16"

    def test_resource_state_forwarded(self):
        hardware = _compiled(RunSpec("BV", 16, resource_state="4-star")).config.hardware
        assert hardware.resource_state is FOUR_STAR
        assert hardware.rows * hardware.cols < 256

    def test_area_override(self):
        run = _compiled(RunSpec("BV", 16, area=100))
        assert run.program.layouts[0].shape == (10, 10)


class TestTable2:
    def test_subset_run(self):
        rows = run_grid(benchmarks=[("BV", 16), ("QAOA", 16)], jobs=1)
        assert [r.label for r in rows] == ["BV-16", "QAOA-16"]

    def test_orders_of_magnitude(self):
        """The paper's headline: improvements of orders of magnitude."""
        rows = run_grid(benchmarks=[("BV", 16), ("RCA", 16)], jobs=1)
        for row in rows:
            assert row.depth_improvement > 10
            assert row.fusion_improvement > 10

    def test_bv_best(self):
        rows = run_grid(benchmarks=[("QAOA", 16), ("BV", 16)], jobs=1)
        by_name = {r.benchmark: r for r in rows}
        assert (
            by_name["BV"].fusion_improvement
            > by_name["QAOA"].fusion_improvement
        )


class TestFigures:
    def test_fig12_all_resource_states(self):
        records = run_fig12(num_qubits=8, benchmarks=("BV",))
        assert {r.resource_state for r in records} == {
            "3-line", "4-line", "4-star", "4-ring"
        }
        for record in records:
            assert record.fusion_improvement > 1

    def test_fig13_shapes(self):
        records = run_fig13(num_qubits=8, benchmarks=("BV",))
        assert {r.ratio for r in records if r.benchmark == "BV"} == {
            r for r, _ in FIG13_SHAPES
        }

    def test_fig14_extended_layer(self):
        record = run_fig14(num_qubits=8, side=9, extension=3)
        assert record.extension == 3
        # the record's coordinate is the spec it ran: same cache key
        spec = RunSpec(
            record.benchmark,
            record.num_qubits,
            seed=record.seed,
            area=record.area,
            extension=record.extension,
        )
        assert spec.key() == record.key
        assert _compiled(spec).program.layouts[0].shape == (9, 27)

    def test_fig15_area_sweep(self):
        records = run_fig15(
            num_qubits=8, benchmarks=("BV",), areas=(64, 144, 256)
        )
        assert {r.area for r in records if r.benchmark == "BV"} == {64, 144, 256}

    def test_fig15_depth_monotone_trend(self):
        """Fig. 15 shape: depth does not increase with physical area."""
        records = run_fig15(
            num_qubits=16, benchmarks=("QAOA",), areas=(100, 256, 600)
        )
        per_area = {r.area: r for r in records}
        assert per_area[100].depth >= per_area[600].depth


class TestFidelity:
    def test_baseline_side_is_the_baseline_result(self):
        """The record's baseline columns plus the cluster area give the
        same log-fidelity as the baseline interpreter's own result."""
        from repro.baseline.interpreter import compile_baseline
        from repro.hardware.noise import baseline_log_fidelity

        ((record, base_lf, oneq_lf, factor),) = run_fidelity([("BV", 8)])
        baseline = compile_baseline(get_benchmark("BV", 8, seed=7), name="BV")
        assert base_lf == baseline_log_fidelity(baseline)
        assert oneq_lf > base_lf
        assert factor > 10
