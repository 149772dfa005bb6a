"""Regenerates paper Fig. 12: improvement factors per resource-state type.

Paper claim: OneQ achieves similar levels of improvement across 3-line,
4-line, 4-star and 4-ring resource states (16-qubit benchmarks).
"""

import pytest

from repro.eval import render_fig12, run_fig12
from repro.hardware import RESOURCE_STATES

from benchmarks.conftest import save_table

BENCHES = ("QFT", "QAOA", "RCA", "BV")
_RESULTS = {}


def _run(rst_name):
    return run_fig12(
        num_qubits=16, benchmarks=BENCHES, resource_states=(rst_name,)
    )


@pytest.mark.parametrize("rst_name", sorted(RESOURCE_STATES))
def test_resource_state(benchmark, rst_name):
    records = benchmark.pedantic(_run, args=(rst_name,), rounds=1, iterations=1)
    _RESULTS[rst_name] = records
    for r in records:
        assert r.depth_improvement > 1, (rst_name, r.label)
        assert r.fusion_improvement > 1, (rst_name, r.label)


def test_fig12_shape(benchmark, results_dir):
    results = {
        rst_name: _RESULTS.get(rst_name) or _run(rst_name)
        for rst_name in RESOURCE_STATES
    }
    records = [r for per_rst in results.values() for r in per_rst]
    benchmark.pedantic(render_fig12, args=(records,), rounds=1, iterations=1)

    # "similar levels of improvement" across resource states: per
    # benchmark, the best/worst fusion factor stays within one order.
    for bench in BENCHES:
        factors = [r.fusion_improvement for r in records if r.benchmark == bench]
        assert max(factors) / min(factors) < 10, (bench, factors)
    # BV dominates for every resource state
    for rst_name, per_rst in results.items():
        by_bench = {r.benchmark: r.fusion_improvement for r in per_rst}
        assert by_bench["BV"] == max(by_bench.values()), rst_name

    save_table(results_dir, "fig12", render_fig12(records))
