"""Does the speed probe read the machine, or the workload beside it?

Every gated timing is ``raw seconds * SpeedProbe.speed``, with the probe
on the compile's core.  If the probe's own speed followed the compile
(its cache or memory load), a change to the compile would move both
factors and partly cancel.  This script compiles QFT-36, RCA-200,
BV-100 (five times, it is short) and QFT-100 on one pinned CPU, each
between two windows of a neutral busy loop, and prints the probe speed
during the compile over the mean of its two neighbours.  A ratio of 1
means the probe reads the same during that compile as beside a loop
that touches no memory; the spread of ratios across compiles bounds the
coupling that is left.

Usage (from the repository root; about 4 minutes at 6 rounds)::

    python3 perfbench/probe_check.py --rounds 6
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_compile import compile_job, make_jobs  # noqa: E402
from bench_stats import SpeedProbe, pin_to_one_cpu  # noqa: E402

#: (label, repeats inside one window); QFT-100 only in the first rounds
COMPILES = (("QFT-36", 1), ("RCA-200", 1), ("BV-100", 5))
LONG = ("QFT-100", 1)
BUSY_S = 1.5


def busy(seconds: float) -> None:
    """Interpreter work with a tiny working set."""
    stop = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < stop:
        for i in range(1000):
            x += i


def window(work) -> float:
    with SpeedProbe() as probe:
        work()
    return probe.speed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--long-rounds", type=int, default=2,
                        help="rounds that also compile QFT-100")
    args = parser.parse_args()
    pin_to_one_cpu()
    jobs = {item.label: item for item in make_jobs(
        [("QFT", 36, 7), ("RCA", 200, 7), ("BV", 100, 7), ("QFT", 100, 7)])}
    ratios = {}
    for rnd in range(args.rounds):
        plan = COMPILES + ((LONG,) if rnd < args.long_rounds else ())
        for label, repeats in plan:
            before = window(lambda: busy(BUSY_S))
            during = window(lambda: [compile_job(jobs[label])
                                     for _ in range(repeats)])
            after = window(lambda: busy(BUSY_S))
            ratio = during / ((before + after) / 2)
            ratios.setdefault(label, []).append(ratio)
            print(f"round {rnd} {label:<8} busy {before:.3f}/{after:.3f} "
                  f"compile {during:.3f} ratio {ratio:.3f}", flush=True)
    for label, values in ratios.items():
        print(f"{label:<8} median ratio {statistics.median(values):.3f} "
              f"over {len(values)} rounds: "
              + " ".join(f"{v:.3f}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
