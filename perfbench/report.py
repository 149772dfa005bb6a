"""Readable report of one benchmark run (printed before the JSON line).

It names every end-to-end metric that applies to the workload, with
its unit, timings as a median plus the highest percentile that has at
least ten samples beyond it, and the known defects it counts.
"""

from __future__ import annotations

from typing import Any, Dict

from bench_stats import format_summary


def _line(name: str, value: Any, unit: str, note: str = "") -> None:
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"  {name:<28} {value} {unit}{('  ' + note) if note else ''}")


def print_report(args, record: Dict[str, Any]) -> None:
    out = record["result"]
    prov = record["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  on {prov['cpu_model']} x{prov['nproc']}, "
          f"Python {prov['python']}, numpy {prov['numpy']}, "
          f"networkx {prov['networkx']}, git {prov['git_sha'] or 'n/a'}"
          f"{' (dirty)' if prov['git_dirty'] else ''}")
    if out.get("setup_s_samples"):
        _line("setup_s", out["setup_s"], "s",
              f"median of {len(out['setup_s_samples'])}")
    if args.workload == "serve-mix":
        _line("compile_s", out["compile_s"], "s",
              "worker-pool CPU seconds per miss at the base rate, at "
              f"reference core speed ({out['pool_cpu_s']:.4g} CPU s raw "
              f"over {len(out['miss_samples'])} misses; speed "
              f"{out['busy_speed']:.3f} during misses, {out['speed']:.3f} "
              "over the step)")
        _line("serve_miss_response_s", out["miss_response_s"], "s",
              "median from send, each at reference core speed (raw "
              f"{out['miss_response_raw_s']:.4g} s)")
        print(f"  serve_hit_ms                 "
              f"{format_summary(out['hit_ms'], 'ms')}")
        print(f"  serve_miss_ms                "
              f"{format_summary(out['miss_ms'], 'ms')}")
        print(f"  loadgen_late_ms              "
              f"{format_summary(out['late_ms'], 'ms')}")
        _line("work_per_s", out["work_per_s"], "1/s",
              "requests per server CPU second at the base rate, at "
              f"reference core speed ({out['server_cpu_s']:.4g} CPU s raw)")
        _line("serve_knee_rps", out["knee_rps"], "1/s",
              f"at reference core speed (raw {out['knee_raw_rps']:.4g})")
        for k, step in enumerate(out["ladder"]):
            print(f"    {'base' if k == 0 else 'ladder':<6} "
                  f"{step['offered_rps']:>7.4g} rps (speed {step['speed']:.3f}):"
                  f" load {step['load']:.3g}; "
                  f"hits {format_summary(step['hit_ms'], 'ms')}; "
                  f"misses {format_summary(step['miss_ms'], 'ms')}; "
                  f"failed {step['failed']}")
        _line("depth_total", out["depth_total"], "count", "hot set")
        _line("fusions_total", out["fusions_total"], "count", "hot set")
    else:
        raw = ", ".join(f"{x:.4g}" for x in out["compile_s_raw"])
        speed = ", ".join(f"{x:.3f}" for x in out["speed"])
        _line("compile_s", out["compile_s"], "s",
              f"{'+'.join(out['rows'])}; median of {len(out['compile_s_raw'])}"
              f" pass(es) at reference core speed (raw {raw} s; speed {speed})")
        _line("depth_total", out["depth_total"], "count")
        _line("fusions_total", out["fusions_total"], "count")
        if "mc_shots_per_s" in out:
            _line("mc_shots_per_s", out["mc_shots_per_s"], "1/s",
                  "uniform DEFAULT_NOISE rows")
            _line("mc_degraded_shots_per_s", out["mc_degraded_shots_per_s"],
                  "1/s", "degraded-fusion site map")
            _line("mc_unresolved_frac", out["mc_unresolved_frac"], "ratio",
                  "known defect: non-Clifford rows have no MC yield")
            for label, row in out["mc_rows"].items():
                yield_mc = row["yield_mc"]
                print(f"    {label:<24} shots={row['shots']} "
                      f"yield_mc={'n/a' if yield_mc is None else f'{yield_mc:.5g}'} "
                      f"wall={row['wall_s']:.4g} s")
        else:
            _line("work_per_s", out["work_per_s"], "1/s",
                  "pattern nodes compiled per second")
        _line("yield.analytic_underflows", out["analytic_underflows"],
              "count", "known defect: linear analytic yield is 0.0")
    _line("peak_rss_mb", out["peak_rss_mb"], "MB")
    _line("cpu_s", out["cpu_s"], "s", f"over {out['wall_s']:.4g} s wall")
    _line("failed_frac", record["failed_frac"], "ratio",
          f"{record['failed']} of {record['attempted']} checks failed")
    for failure in record["failures"][:10]:
        print(f"    FAILED: {failure}")
    if args.trace:
        print("  per-layer (traced pass):")
        for name, metric in record["metrics"].items():
            _line(name, metric["value"], metric["unit"])

