"""Regenerates paper Fig. 15: OneQ across physical areas.

Paper claim: as physical area grows, physical depth first drops rapidly
then plateaus, while #fusions trends upward (more room means longer
routing paths are chosen instead of extra layers).
"""

import pytest

from repro.eval import render_fig15, run_fig15

from benchmarks.conftest import save_table

BENCHES = ("QFT", "QAOA", "RCA", "BV")
AREAS = (100, 256, 400, 700, 1000)
_RESULTS = {}


def _run(bench):
    return run_fig15(num_qubits=16, benchmarks=(bench,), areas=AREAS)


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_across_areas(benchmark, bench):
    records = benchmark.pedantic(_run, args=(bench,), rounds=1, iterations=1)
    _RESULTS[bench] = records
    assert {r.area for r in records} == set(AREAS)


def test_fig15_shape(benchmark, results_dir):
    results = {bench: _RESULTS.get(bench) or _run(bench) for bench in BENCHES}
    records = [r for per_bench in results.values() for r in per_bench]
    benchmark.pedantic(
        render_fig15, args=(records,), kwargs={"base_area": 256},
        rounds=1, iterations=1,
    )

    for bench, per_bench in results.items():
        per_area = {r.area: r for r in per_bench}
        depths = [per_area[a].depth for a in AREAS]
        # depth shrinks (or stays flat) from the smallest to largest area
        assert depths[0] >= depths[-1], (bench, depths)
        # plateau: the last doubling of area changes depth much less than
        # the first one did (relative terms), unless depth is already ~1
        if depths[0] > 4:
            early_gain = depths[0] / max(1, depths[1])
            late_gain = depths[-2] / max(1, depths[-1])
            assert early_gain + 0.5 >= late_gain, (bench, depths)

    save_table(results_dir, "fig15", render_fig15(records, base_area=256))
