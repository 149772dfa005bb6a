"""End-to-end and per-layer benchmark of the OneQ compiler.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-dense --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``compile-dense``, ``compile-lines-yield``, ``serve-mix``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics.  A readable report
goes to standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results
(provenance, samples, failures, spans) are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("compile-dense", "compile-lines-yield", "serve-mix")
#: setup is repeated this many times per run and reported as a median
SETUP_REPEATS = 3


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares (the one list of metric names)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: perform the workload's set-up and exit",
    )
    return parser.parse_args(argv)


def time_setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds (at reference core speed) of a fresh interpreter
    doing the workload's imports and input generation."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, check=True, timeout=170, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def setup_probe(args) -> int:
    """Child side of :func:`time_setup_probe`: set up, print the time."""
    if args.workload == "serve-mix":
        raise SystemExit("serve-mix times its set-up in process")
    import bench_compile
    from bench_stats import SpeedProbe, pin_to_one_cpu

    pin_to_one_cpu()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        bench_compile.prepare(args.workload, args.seed)
        seconds = time.perf_counter() - t0
    print(json.dumps({"setup_s": seconds * probe.speed}))
    return 0


def run_compile_workload(args, checks) -> Dict[str, Any]:
    import bench_compile
    from bench_stats import pin_to_one_cpu

    setup = []
    if not args.trace:
        setup = [time_setup_probe(args.workload, args.seed)
                 for _ in range(SETUP_REPEATS)]
    # the default compile is single-threaded: one CPU lets the speed
    # probe share the compile's core
    pin_to_one_cpu()
    state = bench_compile.prepare(args.workload, args.seed)
    out = bench_compile.measure(state, args.seed, args.seconds,
                                bool(args.trace), checks)
    out["setup_s_samples"] = setup
    if args.trace:
        out["layers"]["yield.analytic_underflows"] = out["analytic_underflows"]
    return out


def run_serve_workload(args, checks) -> Dict[str, Any]:
    import bench_serve
    from bench_compile import Checks
    from bench_stats import SpeedProbe, pin_to_one_cpu
    from bench_trace import Tracer, instrument, layer_metrics

    setup: List[float] = []
    server = None
    # the server and its workers inherit the pin: the probe beside the
    # load generator then measures the core that serves
    pin_to_one_cpu()
    try:
        for k in range(1 if args.trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            with SpeedProbe() as probe:
                server, artifacts, seconds = bench_serve.setup(
                    ROOT, OUT_DIR, f"{os.getpid()}-{k}", args.seed)
            setup.append(seconds * probe.speed)
        out = bench_serve.measure(server, artifacts, args.seed,
                                  args.seconds, checks)
    finally:
        if server is not None:
            server.stop()
    _, underflows = bench_serve.check_hot_set(artifacts, checks)
    out["setup_s_samples"] = [] if args.trace else setup
    if args.trace:
        # the servers are gone: time the in-process reference compile,
        # warm, untraced and then traced
        with SpeedProbe() as probe:
            untraced_s, _ = bench_serve.check_hot_set(artifacts, Checks())
        untraced_s *= probe.speed
        tracer = Tracer()
        instrument(tracer)
        try:
            with SpeedProbe() as probe:
                traced_s, _ = bench_serve.check_hot_set(
                    artifacts, Checks(), tracer)
        finally:
            tracer.unwrap_all()
        traced_s *= probe.speed
        layers = layer_metrics(tracer)
        layers.update(out["layers"])
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["yield.analytic_underflows"] = underflows
        out["layers"] = layers
        out["tracer"] = tracer
    return out


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_probe:
        return setup_probe(args)

    os.makedirs(OUT_DIR, exist_ok=True)
    from bench_compile import Checks
    from bench_stats import cpu_seconds, median, peak_rss_mb, provenance

    checks = Checks()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    if args.workload == "serve-mix":
        out = run_serve_workload(args, checks)
    else:
        out = run_compile_workload(args, checks)
    tracer = out.pop("tracer", None)
    # serve-mix: the server processes (and their workers), not the
    # load generator beside them
    out["peak_rss_mb"] = peak_rss_mb(include_self=args.workload != "serve-mix")
    out["cpu_s"] = cpu_seconds() - cpu0
    out["wall_s"] = time.perf_counter() - wall0
    if out["setup_s_samples"]:
        out["setup_s"] = median(out["setup_s_samples"])

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"spans-{tag}.json"))
    if args.trace:
        # a layer the workload never calls reads 0
        metrics = {name: {"value": out["layers"].get(name, 0), "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        metrics = {name: {"value": out[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}

    record = {
        "provenance": provenance(ROOT, args.workload, args.seed),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_frac": checks.failed / max(1, checks.attempted),
        "failures": checks.failures,
        "result": out,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    import report

    report.print_report(args, record)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
