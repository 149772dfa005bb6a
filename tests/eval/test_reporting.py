"""Tests for the table renderers."""

from repro.eval.batch import run_grid
from repro.eval.experiments import run_fig13, run_fig15, run_table1
from repro.eval.reporting import (
    render_fig12,
    render_fig13,
    render_fig15,
    render_table1,
    render_table2,
)


class TestRenderTable1:
    def test_contains_all_rows(self):
        text = render_table1(run_table1())
        for label in ("QFT-16", "BV-100", "RCA-36"):
            assert label in text

    def test_contains_paper_areas(self):
        text = render_table1(run_table1())
        assert "7x7" in text
        assert "43x43" in text


class TestRenderTable2:
    def test_rendering(self):
        rows = run_grid(benchmarks=[("BV", 16)], jobs=1)
        text = render_table2(rows)
        assert "BV-16" in text
        assert "x" in text
        assert "Paper" in text

    def test_without_paper_columns(self):
        rows = run_grid(benchmarks=[("BV", 16)], jobs=1)
        text = render_table2(rows, with_paper=False)
        assert "Paper" not in text


class TestRenderFigures:
    def test_fig12(self):
        from repro.eval.experiments import run_fig12

        results = run_fig12(num_qubits=8, benchmarks=("BV",), resource_states=("3-line", "4-star"))
        text = render_fig12(results)
        assert "depth improvement" in text
        assert "4-star" in text

    def test_fig13(self):
        results = run_fig13(num_qubits=8, benchmarks=("BV",))
        text = render_fig13(results)
        assert "ratio" in text

    def test_fig15_normalizes_to_one(self):
        results = run_fig15(num_qubits=8, benchmarks=("BV",), areas=(144, 256))
        text = render_fig15(results, base_area=256)
        assert "1.00/1.00" in text
