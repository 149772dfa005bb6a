#!/usr/bin/env python
"""Pauli-frame engine benchmark: frame vs per-shot noisy execution.

Workload: a Bernstein-Vazirani benchmark under a fusion-error-dominated
noise model chosen so that essentially every shot carries at least one
fault — the regime where the sampler actually pays for execution.  The
frame engine and the per-shot tableau reference (the oracle) sample
identical fault configurations at the fixed seed, so their
``NoisySampleResult`` tallies must be bit-identical; the wall-clock
ratio is the headline.

On top of the speedup workload, a **demo point** runs a large-shot
BV-16 yield estimate under the default noise model — the
million-shot-per-noise-point regime the frame engine exists for — and
records its throughput.  With ``--demo-shots`` at or above one million
the demo must finish within ``DEMO_TIME_GATE`` seconds.

Run:  PYTHONPATH=src python benchmarks/bench_frame.py [--shots 4000]

Writes ``benchmarks/BENCH_frame.json`` and exits non-zero when the
tallies diverge, the frame speedup over per-shot drops below the 100x
gate, or the demo point misses its time gate.  ``--quick`` shrinks the
workload to a frame vs per-shot equivalence smoke and skips the
speedup and demo gates; ``--demo-shots 0`` skips the demo entirely.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.circuit import get_benchmark  # noqa: E402
from repro.hardware.noise import DEFAULT_NOISE, NoiseModel  # noqa: E402
from repro.sim.noisy import NoisySampler  # noqa: E402

SPEEDUP_GATE = 100.0
DEMO_TIME_GATE = 60.0

#: Fusion errors dominate and loss is off: nearly every shot is faulty
#: and executes, no shot is aborted before execution.
BENCH_MODEL = NoiseModel(
    fusion_success=0.75,
    fusion_error=0.05,
    cycle_loss=0.0,
    measurement_error=0.002,
)


def _tally(result):
    return {
        "shots": result.shots,
        "successes": result.successes,
        "fault_free": result.fault_free,
        "loss_aborts": result.loss_aborts,
        "logical_failures": result.logical_failures,
        "executed": result.executed,
        "fusion_attempts": result.fusion_attempts,
    }


def run_engine(sampler: NoisySampler, shots: int, engine: str, warm=False):
    if warm:
        # steady-state throughput: a tiny warm-up run absorbs one-time
        # costs (numpy dispatch warmup) that a real sweep amortizes over
        # all of its chunks; the frame program is compiled when the
        # sampler is built, outside the timed runs
        sampler.run(max(1, min(64, shots)), engine=engine)
    t0 = time.perf_counter()
    result = sampler.run(shots, engine=engine)
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="BV")
    parser.add_argument("--qubits", type=int, default=16)
    parser.add_argument("--shots", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--demo-shots", type=int, default=1_000_000,
        help="shots for the default-noise demo point (0 skips it; the "
        f"<{DEMO_TIME_GATE:.0f}s gate applies from 1M shots up)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke workload; equivalence only, no speedup or "
        "demo gates",
    )
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).parent / "BENCH_frame.json"),
    )
    args = parser.parse_args(argv)
    shots = 300 if args.quick else args.shots
    qubits = 8 if args.quick else args.qubits
    demo_shots = 0 if args.quick else args.demo_shots

    circuit = get_benchmark(args.benchmark, qubits, seed=args.seed)

    def fresh_sampler(model=BENCH_MODEL) -> NoisySampler:
        # one sampler per engine: a fresh instance proves neither run
        # leans on the other's state (e.g. the compiled frame program)
        return NoisySampler(circuit, model=model, seed=args.seed)

    per_shot_seconds, per_shot = run_engine(
        fresh_sampler(), shots, "per-shot", warm=True
    )
    frame_seconds, frame = run_engine(
        fresh_sampler(), shots, "frame", warm=True
    )

    identical = _tally(frame) == _tally(per_shot)
    speedup = per_shot_seconds / max(frame_seconds, 1e-12)

    demo = None
    demo_ok = True
    if demo_shots > 0:
        demo_sampler = fresh_sampler(model=DEFAULT_NOISE)
        demo_seconds, demo_result = run_engine(
            demo_sampler, demo_shots, "frame"
        )
        demo = {
            "shots": demo_shots,
            "noise": "default",
            "seconds": round(demo_seconds, 3),
            "shots_per_second": round(demo_result.shots_per_second, 1),
            "yield_mc": round(demo_result.yield_mc, 6),
            "fault_free_yield": round(demo_result.fault_free_yield, 6),
            "executed": demo_result.executed,
            "time_gate_seconds": (
                DEMO_TIME_GATE if demo_shots >= 1_000_000 else None
            ),
        }
        demo_ok = demo_shots < 1_000_000 or demo_seconds < DEMO_TIME_GATE

    payload = {
        "schema_version": 2,
        "label": "frame_engine",
        "workload": {
            "benchmark": f"{args.benchmark}-{qubits}",
            "shots": shots,
            "faulty_shots_executed": frame.executed,
            "noise": {
                "fusion_success": BENCH_MODEL.fusion_success,
                "fusion_error": BENCH_MODEL.fusion_error,
                "cycle_loss": BENCH_MODEL.cycle_loss,
                "measurement_error": BENCH_MODEL.measurement_error,
            },
            "seed": args.seed,
            "quick": args.quick,
        },
        "per_shot_engine": {
            "seconds": round(per_shot_seconds, 5),
            "shots_per_second": round(per_shot.shots_per_second, 1),
        },
        "frame_engine": {
            "seconds": round(frame_seconds, 5),
            "shots_per_second": round(frame.shots_per_second, 1),
        },
        "tally": _tally(frame),
        "yield_mc": round(frame.yield_mc, 6),
        "speedup": round(speedup, 1),
        "tallies_identical": identical,
        "speedup_gate": None if args.quick else SPEEDUP_GATE,
        "demo": demo,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=1) + "\n")

    print(
        f"{args.benchmark}-{qubits}, {shots} shots "
        f"({frame.executed} faulty shots executed)\n"
        f"  per-shot engine: {per_shot_seconds:.4f}s "
        f"({per_shot.shots_per_second:.0f} shots/s)\n"
        f"  frame engine:    {frame_seconds:.4f}s "
        f"({frame.shots_per_second:.0f} shots/s)\n"
        f"  speedup: {speedup:.1f}x; tallies identical: {identical}"
    )
    if demo is not None:
        print(
            f"  demo: {demo_shots:,} shots @ default noise in "
            f"{demo['seconds']:.2f}s ({demo['shots_per_second']:,.0f} "
            f"shots/s), yield_mc={demo['yield_mc']:.4f}"
        )
    print(f"  wrote {out_path}")
    if not identical:
        print("error: engine tallies diverged", file=sys.stderr)
        print(f"  per-shot: {_tally(per_shot)}", file=sys.stderr)
        print(f"  frame:    {_tally(frame)}", file=sys.stderr)
        return 1
    if not args.quick and speedup < SPEEDUP_GATE:
        print(
            f"error: frame speedup {speedup:.1f}x below the "
            f"{SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    if not demo_ok:
        print(
            f"error: {demo_shots:,}-shot demo took {demo['seconds']:.1f}s "
            f"(gate: {DEMO_TIME_GATE:.0f}s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
