"""Regenerates paper Fig. 13: OneQ on rectangular physical layers.

Paper claim: performance is similar across layer aspect ratios 1, 1.5,
2.1 and 2.6 (normalized to the square layer).
"""

import pytest

from repro.eval import FIG13_SHAPES, render_fig13, run_fig13

from benchmarks.conftest import save_table

BENCHES = ("QFT", "QAOA", "RCA", "BV")
_RESULTS = {}


def _run(bench):
    return run_fig13(num_qubits=16, benchmarks=(bench,))


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_across_ratios(benchmark, bench):
    records = benchmark.pedantic(_run, args=(bench,), rounds=1, iterations=1)
    _RESULTS[bench] = records
    assert {r.ratio for r in records} == {r for r, _ in FIG13_SHAPES}


def test_fig13_shape(benchmark, results_dir):
    records = [
        r for bench in BENCHES for r in (_RESULTS.get(bench) or _run(bench))
    ]
    benchmark.pedantic(render_fig13, args=(records,), rounds=1, iterations=1)

    # normalized metrics stay within a small factor of the square layer
    square = {r.benchmark: r for r in records if r.ratio == 1.0}
    for r in records:
        base = square[r.benchmark]
        norm_depth = r.depth / max(1, base.depth)
        norm_fusion = r.num_fusions / max(1, base.num_fusions)
        assert norm_depth < 3.0, (r.benchmark, r.ratio, norm_depth)
        assert norm_fusion < 3.0, (r.benchmark, r.ratio, norm_fusion)

    save_table(results_dir, "fig13", render_fig13(records))
