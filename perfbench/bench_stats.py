"""Pure helpers of the benchmark: timing summaries, seeded load inputs,
the knee decision, and the provenance / resource record of a run.

Nothing here imports the program under test, so the harness tests can
exercise every rule without compiling anything.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: percentiles a timing summary may report, lowest first
PERCENTILE_LADDER: Tuple[float, ...] = (75.0, 90.0, 95.0, 97.5, 99.0, 99.9)

#: a percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of the *pct*-th percentile among *count*
    (the epsilon keeps e.g. 99.9% of 10000 at rank 9990, not 9991)."""
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def quantile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank *pct*-th percentile of *values* (not necessarily sorted)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    return sorted(values)[_rank(pct, len(values)) - 1]


def median(values: Sequence[float]) -> float:
    """Median of *values* (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it in a sample of *count*; ``None`` when the sample is too
    small for any of them."""
    best = None
    for pct in PERCENTILE_LADDER:
        if count - _rank(pct, count) >= MIN_BEYOND:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median plus the highest supported percentile, with the count."""
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": median(values) if values else None,
        "tail_pct": pct,
        "tail": quantile(values, pct) if pct is not None else None,
    }


def format_summary(summary: Dict[str, Optional[float]], unit: str) -> str:
    """One-line rendering, e.g. ``p50 1.2 ms, p97.5 3.4 ms (n=400)``."""
    if not summary["n"]:
        return "no samples"
    text = f"p50 {summary['median']:.4g} {unit}"
    if summary["tail_pct"] is not None:
        text += f", p{summary['tail_pct']:g} {summary['tail']:.4g} {unit}"
    return text + f" (n={summary['n']})"


# ----------------------------------------------------------------------
# seeded load inputs
# ----------------------------------------------------------------------
def poisson_arrivals(count: int, start: float, stop: float,
                     rng: random.Random) -> List[float]:
    """Due times of *count* open-loop Poisson arrivals in ``[start, stop)``.

    A Poisson stream conditioned on its count is *count* uniform times,
    sorted; fixing the count gives every ladder step the same number of
    samples, so each step has a tail percentile to judge.
    """
    return sorted(rng.uniform(start, stop) for _ in range(count))


def skewed_draws(count: int, population: int, rng: random.Random,
                 exponent: float = 1.0) -> List[int]:
    """*count* indices into ``range(population)`` drawn with Zipf-like
    weights ``1 / (rank + 1) ** exponent``: low ranks are the hot head."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
    return rng.choices(range(population), weights=weights, k=count)


# ----------------------------------------------------------------------
# knee of the offered-rate ladder
# ----------------------------------------------------------------------
def step_load(hit_latencies_ms: Sequence[float],
              miss_latencies_ms: Sequence[float],
              failed: int,
              hit_limit_ms: float,
              miss_limit_ms: float) -> float:
    """How far one ladder step is from its limits: the larger of
    ``tail / limit`` over hits and misses, so the step meets the limits
    when the result is at most 1.

    Each tail is the highest percentile with ``MIN_BEYOND`` samples
    beyond it.  Latencies run from each request's due time, so a
    growing backlog shows up as a growing tail.  A failed request, or a
    sample too small to have a tail, gives ``inf``.
    """
    load = 0.0
    for values, limit in ((hit_latencies_ms, hit_limit_ms),
                          (miss_latencies_ms, miss_limit_ms)):
        pct = tail_percentile(len(values))
        if pct is None:
            return math.inf
        load = max(load, quantile(values, pct) / limit)
    return math.inf if failed else load


def knee_rate(steps: Sequence[Tuple[float, float]]) -> float:
    """Offered rate at which the ladder reaches its limits.

    *steps* are ``(offered_rate, load)`` with *load* from
    :func:`step_load`.  ``log load`` is fitted to a line in
    ``log rate`` by least squares over the steps with a finite load, and
    the knee is the rate where the line reaches load 1, so it moves
    continuously rather than in ladder steps and every step's tail
    counts.  With fewer than two finite loads, or a fit that does not
    rise with the rate, the knee is the highest rate whose load is at
    most 1 (0.0 when there is none).
    """
    points = [(math.log(rate), math.log(load)) for rate, load in steps
              if math.isfinite(load) and load > 0 and rate > 0]
    if len(points) >= 2:
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        sxy = sum((x - mx) * (y - my) for x, y in points)
        if sxx > 0 and sxy > 0:
            return math.exp(mx - my * sxx / sxy)
    return max((rate for rate, load in steps if load <= 1.0), default=0.0)


# ----------------------------------------------------------------------
# core speed
# ----------------------------------------------------------------------
#: seconds one :func:`probe_work` call takes on the reference core; it
#: only fixes the scale of speed-normalized timings
REF_PROBE_S = 3.0e-4


def probe_work() -> int:
    """A fixed slice of interpreter work on a few local integers.

    Its working set is a handful of objects, so its speed follows the
    core it runs on and not the caches that the work beside it fills;
    ``probe_check.py`` measures how much coupling is left.
    """
    x = 1
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


class SpeedProbe:
    """Relative speed of the cores the work runs on, sampled while a
    timed interval runs.

    The cores of a shared machine slow down and speed up by tens of
    percent for seconds at a time.  A background thread times
    :func:`probe_work` every *interval* seconds; with the process (and
    the children it starts) pinned to one CPU it measures the same core
    as the work.  ``speed`` is the
    time-mean of ``REF_PROBE_S / duration`` (1.0 = reference core, lower
    = slower), so ``seconds * speed`` is the interval's length at
    reference speed.  Durations are the probe thread's own CPU time, so
    time the thread spends waiting (for the interpreter lock, or while
    the benchmark's other processes hold the core) does not count as
    slowness.  Each sample holds the interpreter lock for about
    ``REF_PROBE_S``, about 1.5% of the interval at the default spacing.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.samples: List[float] = []
        #: ``time.perf_counter()`` at the end of each sample
        self.stamps: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            t0 = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - t0)
            self.stamps.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        probe_work()  # first call outside the sample: warm caches
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # interval shorter than one spacing
            t0 = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - t0)
            self.stamps.append(time.perf_counter())

    @property
    def speed(self) -> float:
        return sum(REF_PROBE_S / d for d in self.samples) / len(self.samples)

    def speed_during(self, intervals: Sequence[Tuple[float, float]]) -> float:
        """Mean speed of the samples taken inside any of *intervals*
        (``perf_counter`` start, end); :attr:`speed` when there is none.

        Short pieces of work, such as single requests, see the core's
        swings within a run; normalising each by the samples taken
        while it ran follows them where one mean over the run cannot.
        """
        inside = [REF_PROBE_S / d for d, t in zip(self.samples, self.stamps)
                  if any(lo <= t <= hi for lo, hi in intervals)]
        return sum(inside) / len(inside) if inside else self.speed


def pin_to_one_cpu() -> int:
    """Restrict this process (and children started later) to the first
    CPU it may use; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ----------------------------------------------------------------------
# provenance and resources
# ----------------------------------------------------------------------
def _git(root: str, *args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str:
    """CPU model name from the kernel, falling back to ``platform``."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: str, workload: str, seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import networkx
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "argv": sys.argv[1:],
    }


def peak_rss_mb(include_self: bool = True) -> float:
    """Peak resident set of this process or any child it has waited for
    (of the children alone when not *include_self*)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def process_tree_cpu(pid: int) -> Dict[int, float]:
    """User + system CPU seconds of process *pid* and of every live
    descendant, each with the children it has waited for, by pid (from
    ``/proc``, in clock ticks)."""
    parent: Dict[int, int] = {}
    ticks: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # the process ended while we looked
            continue
        # fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rindex(")") + 2:].split()
        parent[int(entry)] = int(fields[1])
        ticks[int(entry)] = sum(int(f) for f in fields[11:15])
    hz = os.sysconf("SC_CLK_TCK")
    return {proc: count / hz for proc, count in ticks.items()
            if proc == pid or _descends(proc, pid, parent)}


def _descends(proc: int, ancestor: int, parent: Dict[int, int]) -> bool:
    while proc in parent and proc > 1:
        proc = parent[proc]
        if proc == ancestor:
            return True
    return False


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its waited children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total
