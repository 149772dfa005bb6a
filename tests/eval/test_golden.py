"""Golden regression tests for headline metrics.

The compiler is deterministic, but exact counts move with any heuristic
tweak; the 16-qubit Table-2 tests pin *ranges* wide enough to survive
small heuristic changes while catching structural regressions (an
order-of-magnitude blowup in fusions, shuffle explosion, depth
regressions).  Measured values at time of writing:
  BV-16:   depth 2,   fusions 38
  QAOA-16: depth ~38, fusions ~2300
  QFT-16:  depth ~76, fusions ~6000

The 8-qubit figure sweeps (Figs. 12-15 and the ablation) are cheap
enough to pin exactly.
"""

import pytest

from repro.eval import (
    RunSpec,
    execute_spec,
    run_ablation,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
)


@pytest.fixture(scope="module")
def rows():
    return {
        name: execute_spec(RunSpec(name, 16))
        for name in ("QFT", "QAOA", "RCA", "BV")
    }


class TestGoldenRanges:
    def test_bv16(self, rows):
        r = rows["BV"]
        assert 1 <= r.depth <= 4
        assert 20 <= r.num_fusions <= 120

    def test_qaoa16(self, rows):
        r = rows["QAOA"]
        assert 15 <= r.depth <= 90
        assert 800 <= r.num_fusions <= 6000

    def test_rca16(self, rows):
        r = rows["RCA"]
        assert 15 <= r.depth <= 80
        assert 800 <= r.num_fusions <= 6000

    def test_qft16(self, rows):
        r = rows["QFT"]
        assert 40 <= r.depth <= 180
        assert 2500 <= r.num_fusions <= 15000

    def test_improvement_orders_of_magnitude(self, rows):
        for name, row in rows.items():
            assert row.depth_improvement > 20, name
            assert row.fusion_improvement > 50, name

    def test_baseline_depths_stable(self, rows):
        assert 2000 <= rows["QFT"].baseline_depth <= 6000
        assert 150 <= rows["BV"].baseline_depth <= 600

    def test_shuffle_not_dominating_bv(self, rows):
        """BV is one partition: shuffling must stay negligible."""
        t = rows["BV"]
        assert t.shuffling <= t.edge + t.synthesis

    def test_oneq_absolute_values_near_paper(self, rows):
        """Sanity: our compiler lands in the paper's output range."""
        assert rows["QFT"].depth <= 2 * 83   # paper: 83
        assert rows["QAOA"].num_fusions <= 3 * 2578   # paper: 2578
        assert rows["BV"].num_fusions <= 3 * 63       # paper: 63


#: Exact (depth, num_fusions, baseline_depth, baseline_fusions) of every
#: 8-qubit figure coordinate, recorded when the figure runners were
#: folded onto execute_spec; the compiler is deterministic, so any drift
#: here is a behaviour change of the figure sweeps.
FIG12_8Q = {
    # (benchmark, resource state)
    ("QFT", "3-line"): (29, 1306, 902, 129888),
    ("QAOA", "3-line"): (10, 477, 378, 54432),
    ("RCA", "3-line"): (21, 971, 782, 112608),
    ("BV", "3-line"): (2, 18, 52, 7488),
    ("QFT", "4-line"): (31, 1332, 902, 129888),
    ("QAOA", "4-line"): (15, 555, 378, 54432),
    ("RCA", "4-line"): (21, 972, 782, 112608),
    ("BV", "4-line"): (3, 24, 52, 7488),
    ("QFT", "4-star"): (33, 917, 902, 73062),
    ("QAOA", "4-star"): (16, 330, 378, 30618),
    ("RCA", "4-star"): (26, 693, 782, 63342),
    ("BV", "4-star"): (4, 21, 52, 4212),
    ("QFT", "4-ring"): (31, 1332, 902, 129888),
    ("QAOA", "4-ring"): (15, 555, 378, 54432),
    ("RCA", "4-ring"): (21, 972, 782, 112608),
    ("BV", "4-ring"): (3, 24, 52, 7488),
}
FIG13_8Q = {
    # (benchmark, aspect ratio)
    ("QFT", 1.0): (24, 1271, 902, 129888),
    ("QFT", 1.5): (22, 1365, 902, 129888),
    ("QFT", 2.1): (24, 1545, 902, 129888),
    ("QFT", 2.6): (25, 1378, 902, 129888),
    ("QAOA", 1.0): (8, 522, 378, 54432),
    ("QAOA", 1.5): (7, 566, 378, 54432),
    ("QAOA", 2.1): (7, 467, 378, 54432),
    ("QAOA", 2.6): (9, 548, 378, 54432),
    ("RCA", 1.0): (15, 1044, 782, 112608),
    ("RCA", 1.5): (13, 829, 782, 112608),
    ("RCA", 2.1): (17, 956, 782, 112608),
    ("RCA", 2.6): (16, 930, 782, 112608),
    ("BV", 1.0): (2, 18, 52, 7488),
    ("BV", 1.5): (2, 18, 52, 7488),
    ("BV", 2.1): (2, 18, 52, 7488),
    ("BV", 2.6): (2, 18, 52, 7488),
}
FIG15_8Q = {
    # (benchmark, physical area)
    ("QFT", 100): (37, 1194, 902, 129888),
    ("QFT", 200): (24, 1381, 902, 129888),
    ("QFT", 256): (24, 1271, 902, 129888),
    ("QFT", 400): (20, 1440, 902, 129888),
    ("QFT", 600): (20, 1460, 902, 129888),
    ("QFT", 800): (20, 1481, 902, 129888),
    ("QFT", 1000): (19, 1441, 902, 129888),
    ("QAOA", 100): (17, 399, 378, 54432),
    ("QAOA", 200): (10, 565, 378, 54432),
    ("QAOA", 256): (8, 522, 378, 54432),
    ("QAOA", 400): (5, 408, 378, 54432),
    ("QAOA", 600): (8, 516, 378, 54432),
    ("QAOA", 800): (7, 418, 378, 54432),
    ("QAOA", 1000): (6, 413, 378, 54432),
    ("RCA", 100): (25, 818, 782, 112608),
    ("RCA", 200): (15, 880, 782, 112608),
    ("RCA", 256): (15, 1044, 782, 112608),
    ("RCA", 400): (13, 1102, 782, 112608),
    ("RCA", 600): (12, 867, 782, 112608),
    ("RCA", 800): (11, 1225, 782, 112608),
    ("RCA", 1000): (11, 882, 782, 112608),
    ("BV", 100): (2, 18, 52, 7488),
    ("BV", 200): (2, 18, 52, 7488),
    ("BV", 256): (2, 18, 52, 7488),
    ("BV", 400): (1, 18, 52, 7488),
    ("BV", 600): (1, 18, 52, 7488),
    ("BV", 800): (1, 18, 52, 7488),
    ("BV", 1000): (1, 18, 52, 7488),
}
ABLATION_QFT8 = {
    "default": (29, 1306, 902, 129888),
    "lemma1-scheduling": (44, 2355, 902, 129888),
    "no-embedding": (24, 1091, 902, 129888),
    "no-hints": (31, 1359, 902, 129888),
    "alpha-1": (29, 1306, 902, 129888),
}
FIG14_QFT8 = (34, 1413, 902, 129888)

BENCHMARKS = ("QFT", "QAOA", "RCA", "BV")


def _metrics(r):
    return (r.depth, r.num_fusions, r.baseline_depth, r.baseline_fusions)


class TestGoldenFigures8Q:
    def test_fig12(self):
        got = {
            (r.benchmark, r.resource_state): _metrics(r)
            for r in run_fig12(num_qubits=8, benchmarks=BENCHMARKS)
        }
        assert got == FIG12_8Q

    def test_fig13(self):
        got = {
            (r.benchmark, r.ratio): _metrics(r)
            for r in run_fig13(num_qubits=8, benchmarks=BENCHMARKS)
        }
        assert got == FIG13_8Q

    def test_fig15(self):
        got = {
            (r.benchmark, r.area): _metrics(r)
            for r in run_fig15(num_qubits=8, benchmarks=BENCHMARKS)
        }
        assert got == FIG15_8Q

    def test_ablation(self):
        got = {
            variant: _metrics(r)
            for variant, r in run_ablation(num_qubits=8).items()
        }
        assert got == ABLATION_QFT8

    def test_fig14(self):
        assert _metrics(run_fig14(num_qubits=8)) == FIG14_QFT8
