"""Tests of the benchmark's harness pieces (no compiles, no server)."""

from __future__ import annotations

import math
import os
import random
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench_stats import (  # noqa: E402
    REF_PROBE_S,
    SpeedProbe,
    knee_rate,
    median,
    poisson_arrivals,
    process_tree_cpu,
    quantile,
    skewed_draws,
    step_load,
    summarize,
    tail_percentile,
)
from bench_trace import Tracer  # noqa: E402


@pytest.mark.parametrize(
    "count, pct",
    [(0, None), (19, None), (39, None), (40, 75.0), (99, 75.0),
     (100, 90.0), (200, 95.0), (399, 95.0), (400, 97.5), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, pct):
    assert tail_percentile(count) == pct
    if pct is not None:
        assert count * (100 - pct) >= 1000 - 1e-6


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(values)
    summary = summarize(values)
    assert summary == {"n": 100, "median": 50.5, "tail_pct": 90.0,
                       "tail": 90.0}
    assert sum(v > summary["tail"] for v in values) == 10
    assert summarize([3.0, 1.0, 2.0]) == {
        "n": 3, "median": 2.0, "tail_pct": None, "tail": None}


def test_quantile_is_nearest_rank():
    assert quantile([5, 1, 4, 2, 3], 50) == 3
    assert quantile([5, 1, 4, 2, 3], 100) == 5
    assert quantile([5, 1, 4, 2, 3], 1) == 1
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        quantile([], 50)


def test_arrival_schedule_is_reproducible_per_seed():
    a = poisson_arrivals(400, 10.0, 20.0, random.Random(3))
    b = poisson_arrivals(400, 10.0, 20.0, random.Random(3))
    c = poisson_arrivals(400, 10.0, 20.0, random.Random(4))
    assert a == b
    assert a != c
    assert a == sorted(a)
    assert len(a) == 400
    assert all(10.0 <= t < 20.0 for t in a)
    # Poisson gaps: exponential, so their mean is the spacing and about
    # 1 - 1/e of them are shorter than it
    gaps = [y - x for x, y in zip(a, a[1:])]
    assert 0.02 < sum(gaps) / len(gaps) < 0.03
    assert 0.55 < sum(g < 0.025 for g in gaps) / len(gaps) < 0.71
    assert poisson_arrivals(0, 0.0, 10.0, random.Random(3)) == []


def test_hot_set_draw_is_reproducible_and_skewed():
    a = skewed_draws(20000, 384, random.Random(7))
    assert a == skewed_draws(20000, 384, random.Random(7))
    assert a != skewed_draws(20000, 384, random.Random(8))
    assert set(a) <= set(range(384))
    # the 256 hottest of 384 keys (the memory tier's capacity) take
    # all but about 6% of the draws; the 128-key tail still reaches disk
    tail = sum(d >= 256 for d in a) / len(a)
    assert 0.04 < tail < 0.08
    assert a.count(0) > a.count(383) * 50


def test_bench_serve_hot_order_is_seeded_permutation():
    import bench_serve

    order = bench_serve.hot_order(5)
    assert order == bench_serve.hot_order(5)
    assert order != bench_serve.hot_order(6)
    assert sorted(order) == list(range(len(bench_serve.HOT_SET)))
    assert len(bench_serve.HOT_SET) == 3 * bench_serve.MEM_CAPACITY // 2


def test_step_load_is_worst_tail_over_limit():
    hits = [1.0] * 400
    misses = [100.0] * 40
    # p97.5 of 400 hits and p75 of 40 misses: 10 samples beyond each
    assert step_load(hits, misses, 0, 50.0, 250.0) == pytest.approx(0.4)
    assert step_load([60.0] * 400, misses, 0, 50.0, 250.0) == pytest.approx(1.2)
    assert step_load(hits, misses, 1, 50.0, 250.0) == math.inf
    # too few samples for a tail with 10 beyond: not judged as passing
    assert step_load(hits, [100.0] * 39, 0, 50.0, 250.0) == math.inf
    assert step_load(hits, [], 0, 50.0, 250.0) == math.inf
    slow_tail = [100.0] * 30 + [2000.0] * 10  # p75 of 40 is 100
    assert step_load(hits, slow_tail, 0, 50.0, 250.0) == pytest.approx(0.4)
    slower_tail = [100.0] * 29 + [2000.0] * 11
    assert step_load(hits, slower_tail, 0, 50.0, 250.0) == pytest.approx(8.0)


def test_knee_is_where_the_fitted_load_reaches_one():
    # log load is linear in log rate: the crossing is exact
    assert knee_rate([(100, 0.5), (200, 2.0)]) == pytest.approx(
        math.sqrt(100 * 200))
    assert knee_rate([(100, 0.5), (100 * 2 ** 0.5, 1.0), (200, 2.0)]) == (
        pytest.approx(100 * 2 ** 0.5))
    # every step counts, and the knee moves continuously with the loads
    assert (knee_rate([(100, 0.5), (200, 1.5)])
            > knee_rate([(100, 0.5), (200, 3.0)]) > 100)
    assert knee_rate([(100, 0.25), (200, 0.5)]) == pytest.approx(400)
    # a failed step (infinite load) is left out of the fit
    assert knee_rate([(100, 0.5), (200, 2.0), (300, math.inf)]) == (
        pytest.approx(math.sqrt(100 * 200)))
    # no rising fit: the highest rate that meets the limits, else 0
    assert knee_rate([(100, 0.5), (200, 0.4)]) == 200
    assert knee_rate([(100, 0.5), (200, math.inf)]) == 100
    assert knee_rate([(100, 1.5), (200, 1.2)]) == 0.0


def test_speed_during_uses_the_samples_inside_the_intervals():
    probe = SpeedProbe()
    probe.samples = [REF_PROBE_S, REF_PROBE_S / 2, REF_PROBE_S / 4]
    probe.stamps = [1.0, 2.0, 3.0]
    assert probe.speed == pytest.approx(7 / 3)
    assert probe.speed_during([(1.5, 2.5)]) == pytest.approx(2.0)
    assert probe.speed_during([(0.5, 1.0), (2.5, 3.5)]) == pytest.approx(2.5)
    # no sample inside: the mean over the whole interval
    assert probe.speed_during([(1.2, 1.8)]) == pytest.approx(7 / 3)


def test_process_tree_cpu_counts_descendants():
    import signal
    import subprocess

    busy = ("import time\ne = time.process_time() + 0.3\n"
            "while time.process_time() < e: pass")
    # a child that runs a busy grandchild to its end, starts an idle
    # one, prints the idle one's pid, then idles itself
    spawn = ("import subprocess, sys, time; "
             f"subprocess.run([sys.executable, '-c', {busy!r}]); "
             "idle = subprocess.Popen([sys.executable, '-c', "
             "'import time; time.sleep(30)']); "
             "print(idle.pid, flush=True); time.sleep(30)")
    proc = subprocess.Popen([sys.executable, "-c", spawn],
                            stdout=subprocess.PIPE, text=True)
    idle = None
    try:
        idle = int(proc.stdout.readline())
        tree = process_tree_cpu(proc.pid)
        assert set(tree) == {proc.pid, idle}
        # the busy grandchild's CPU time, waited for by the child, counts
        assert 0.28 <= tree[proc.pid] < 5.0
    finally:
        if idle is not None:
            os.kill(idle, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_tracer_self_time_and_restore():
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner",
                count=lambda c, r: c.update(inner_results=r))
    assert module.outer(1) == 4
    tracer.unwrap_all()
    assert module.inner is inner and module.outer is outer

    totals = tracer.totals()
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    assert tracer.spans[1][1] == 0  # inner's parent is outer
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"])
    assert tracer.counters["inner_results"] == 2
    with pytest.raises(TypeError):
        tracer.wrap(module, "__name__", "not-a-function")
