"""The two in-process workloads: ``compile-dense`` and
``compile-lines-yield``.

Both drive the Table-2 compile path (translate -> schedule -> partition
-> fusion graph -> map -> shuffle) through the library's public API,
the same calls ``repro.eval.batch.execute_spec`` makes, so that the
compile can be timed apart from the checks that follow it.
"""

from __future__ import annotations

import csv
import functools
import gc
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from bench_stats import SpeedProbe, median
from bench_trace import Tracer, instrument, layer_metrics

#: the committed Table-2 grid; a compile of one of its rows must
#: reproduce that row's physical depth and #fusions exactly
RUN_TABLE_CSV = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "run_table.csv")


@functools.lru_cache(maxsize=None)
def run_table_rows() -> Dict[Tuple[str, int, int], Tuple[int, int]]:
    """(benchmark, qubits, seed) -> (depth, #fusions) of the committed
    run table's default-hardware (3-line, ratio 1) rows."""
    with open(RUN_TABLE_CSV, newline="") as fh:
        return {
            (row["benchmark"], int(row["num_qubits"]), int(row["seed"])):
            (int(row["depth"]), int(row["num_fusions"]))
            for row in csv.DictReader(fh)
            if row["resource_state"] == "3-line"
            and float(row["ratio"]) == 1.0
        }


#: benchmarks whose circuit does not depend on the seed
SEEDLESS = ("QFT", "RCA")

#: Monte-Carlo budgets of one yield pass (shots per row)
UNIFORM_SHOTS = 200_000
DEGRADED_SHOTS = 20_000
DEGRADED_SEVERITY = 0.5
#: sampler seed of the statistical check, fixed so that the check's
#: verdict is a property of the code rather than of the draw
CHECK_SEED = 7


def job(name: str, qubits: int, seed: int) -> Tuple[str, int, int]:
    return (name, qubits, 7 if name in SEEDLESS else seed)


def dense_jobs(seed: int) -> List[Tuple[str, int, int]]:
    return [job("QFT", 100, seed), job("QAOA", 100, seed)]


def lines_jobs(seed: int) -> List[Tuple[str, int, int]]:
    return [job("RCA", 100, seed), job("RCA", 200, seed), job("BV", 100, seed)]


class Checks:
    """Correctness checks of one run: attempted, failed, and what."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass
class Job:
    """One circuit with its hardware, built at set-up."""

    key: Tuple[str, int, int]
    circuit: Any
    hardware: Any

    @property
    def label(self) -> str:
        return f"{self.key[0]}-{self.key[1]}"


@dataclass
class Compiled:
    job: Job
    pattern: Any
    program: Any
    seconds: float


def make_jobs(keys: List[Tuple[str, int, int]]) -> List[Job]:
    from repro.circuit.benchmarks import get_benchmark
    from repro.eval.experiments import _hardware_for
    from repro.hardware.resource_state import get_resource_state

    rst = get_resource_state("3-line")
    return [
        Job(key, get_benchmark(key[0], key[1], seed=key[2]),
            _hardware_for(key[1], rst))
        for key in keys
    ]


def compile_job(item: Job, tracer: Optional[Tracer] = None) -> Compiled:
    """Translate and compile one circuit with the default ``OneQConfig``."""
    import repro.mbqc.translate as translate
    from repro.core.compiler import OneQCompiler, OneQConfig

    compiler = OneQCompiler(OneQConfig(hardware=item.hardware))
    t0 = time.perf_counter()
    with _span(tracer, "compile"):
        pattern = translate.circuit_to_pattern(item.circuit)
        program = compiler.compile_pattern(
            pattern, name=item.label, num_qubits=item.circuit.num_qubits
        )
    return Compiled(item, pattern, program, time.perf_counter() - t0)


def check_compiled(done: Compiled, checks: Checks,
                   tracer: Optional[Tracer] = None) -> None:
    """Validate, verify and baseline one compile; compare to the run table."""
    from repro.baseline.interpreter import compile_baseline
    from repro.core.validate import validate_program, verify_pattern
    from repro.hardware.resource_state import get_resource_state

    label, program = done.job.label, done.program
    with _span(tracer, "validate"):
        ok, errors = validate_program(program, done.job.hardware)
    checks.check(ok, f"{label}: validate_program: {errors[:1]}")
    checks.check(program.photon_deficit == 0,
                 f"{label}: photon_deficit={program.photon_deficit}")
    with _span(tracer, "verify"):
        report = verify_pattern(done.job.circuit, pattern=done.pattern,
                                seed=done.job.key[2])
    checks.check(report.ok, f"{label}: verify_pattern ({report.method}) failed")
    with _span(tracer, "baseline"):
        baseline = compile_baseline(
            done.job.circuit, name=done.job.key[0],
            resource_state=get_resource_state("3-line"),
        )
    checks.check(
        baseline.depth > program.physical_depth
        and baseline.num_fusions > program.num_fusions,
        f"{label}: OneQ does not beat the baseline "
        f"({program.physical_depth}/{program.num_fusions} vs "
        f"{baseline.depth}/{baseline.num_fusions})",
    )
    check_run_table(done.job.key, (program.physical_depth,
                                   program.num_fusions), checks)


def check_run_table(key: Tuple[str, int, int], got: Tuple[int, int],
                    checks: Checks) -> None:
    """Depth and #fusions of *key* match its run-table row, if it has one."""
    expected = run_table_rows().get(key)
    if expected is not None:
        checks.check(got == expected,
                     f"{key[0]}-{key[1]} seed {key[2]}: depth/fusions "
                     f"{got} != run table {expected}")


def analytic_underflow(program: Any) -> bool:
    """Linear analytic yield is 0.0 although its log is finite."""
    from repro.hardware.noise import program_log_fidelity
    from repro.sim.noisy import FaultCounts

    linear = FaultCounts.from_program(program).analytic_yield()
    return linear == 0.0 and math.isfinite(program_log_fidelity(program))


# ----------------------------------------------------------------------
# compile pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    compile_s: float
    #: (depth, #fusions) per circuit
    tallies: List[Tuple[int, int]]
    pattern_nodes: int
    #: the compiles themselves, kept for the checks of the first pass
    compiled: List[Compiled]
    #: core speed over the compiles (:class:`bench_stats.SpeedProbe`)
    speed: float = 1.0
    mc: Dict[str, Any] = field(default_factory=dict)
    #: wall seconds of the pass at reference core speed
    norm_wall_s: float = 0.0


def compile_pass(jobs: List[Job], tracer: Optional[Tracer] = None) -> PassResult:
    with SpeedProbe() as probe:
        compiled = [compile_job(item, tracer) for item in jobs]
    return PassResult(
        compile_s=sum(c.seconds for c in compiled),
        tallies=[(c.program.physical_depth, c.program.num_fusions)
                 for c in compiled],
        pattern_nodes=sum(c.program.pattern_nodes for c in compiled),
        compiled=compiled,
        speed=probe.speed,
    )


# ----------------------------------------------------------------------
# yield rows (compile-lines-yield)
# ----------------------------------------------------------------------
@dataclass
class YieldRow:
    label: str
    done: Compiled
    shots: int
    site_map: Any = None
    site_profile: Any = None
    uniform: bool = True


def make_yield_rows(seed: int) -> List[YieldRow]:
    """Compile the sampled programs and build the degraded site map."""
    from repro.hardware.degradation import make_scenario, program_site_profile

    bv36, bv100, qft16, rca16 = [
        compile_job(item) for item in make_jobs([
            job("BV", 36, seed), job("BV", 100, seed),
            job("QFT", 16, seed), job("RCA", 16, seed),
        ])
    ]
    shape = bv100.job.hardware.extended_shape
    site_map = make_scenario("degraded-fusion", shape, DEGRADED_SEVERITY,
                             seed=seed)
    return [
        YieldRow("BV-36 uniform", bv36, UNIFORM_SHOTS),
        YieldRow("BV-100 uniform", bv100, UNIFORM_SHOTS),
        YieldRow("BV-100 degraded-fusion", bv100, DEGRADED_SHOTS,
                 site_map=site_map,
                 site_profile=program_site_profile(bv100.program, shape),
                 uniform=False),
        YieldRow("QFT-16 uniform", qft16, UNIFORM_SHOTS),
        YieldRow("RCA-16 uniform", rca16, UNIFORM_SHOTS),
    ]


def estimate(row: YieldRow, seed: int):
    from repro.core.validate import estimate_yield
    from repro.sim.noisy import FaultCounts

    return estimate_yield(
        row.done.job.circuit, pattern=row.done.pattern, shots=row.shots,
        seed=seed, counts=FaultCounts.from_program(row.done.program),
        site_map=row.site_map, site_profile=row.site_profile,
    )


def yield_pass(rows: List[YieldRow], seed: int) -> Dict[str, Any]:
    """Sample every row once; wall time per row includes sampler set-up.
    Throughputs are at reference core speed."""
    out: Dict[str, Any] = {"rows": {}}
    uniform_shots = uniform_s = degraded = 0.0
    with SpeedProbe() as probe:
        for row in rows:
            t0 = time.perf_counter()
            est = estimate(row, seed)
            wall = time.perf_counter() - t0
            out["rows"][row.label] = {
                "wall_s": wall, "shots": est.shots, "yield_mc": est.yield_mc,
                "fault_free_yield": est.fault_free_yield,
            }
            if est.shots and row.uniform:
                uniform_shots += est.shots
                uniform_s += wall
            if est.shots and not row.uniform:
                degraded = est.shots / wall
    out["speed"] = probe.speed
    out["wall_s"] = sum(r["wall_s"] for r in out["rows"].values())
    out["shots_per_s"] = (uniform_shots / uniform_s / probe.speed
                          if uniform_s else 0.0)
    out["degraded_shots_per_s"] = degraded / probe.speed
    out["unresolved"] = sum(1 for r in out["rows"].values()
                            if r["yield_mc"] is None)
    return out


def check_yield_rows(rows: List[YieldRow], checks: Checks) -> None:
    """Fault-free MC yield within 3 sigma of the closed form (fixed seed)."""
    for row in rows:
        est = estimate(row, CHECK_SEED)
        if not est.shots:
            continue  # analytic-only rows are counted as unresolved
        gap = abs(est.fault_free_yield - est.yield_analytic)
        checks.check(
            gap <= 3.0 * est.sigma,
            f"{row.label}: fault-free yield {est.fault_free_yield:.6g} is "
            f"{gap / est.sigma if est.sigma else math.inf:.2f} sigma from "
            f"the closed form {est.yield_analytic:.6g}",
        )


# ----------------------------------------------------------------------
# workload drivers
# ----------------------------------------------------------------------
def prepare(workload: str, seed: int) -> Dict[str, Any]:
    """Set-up: build the inputs (and the sampled programs)."""
    if workload == "compile-dense":
        return {"jobs": make_jobs(dense_jobs(seed))}
    return {"jobs": make_jobs(lines_jobs(seed)),
            "rows": make_yield_rows(seed)}


def run_pass(state: Dict[str, Any], seed: int,
             tracer: Optional[Tracer] = None) -> PassResult:
    result = compile_pass(state["jobs"], tracer)
    result.norm_wall_s = result.compile_s * result.speed
    if "rows" in state:
        result.mc = yield_pass(state["rows"], seed)
        result.norm_wall_s += result.mc["wall_s"] * result.mc["speed"]
    return result


def measure(state: Dict[str, Any], seed: int, seconds: float,
            trace: bool, checks: Checks) -> Dict[str, Any]:
    """Run untraced passes for *seconds* (at least one); with *trace*,
    run one untraced and then one traced pass.  The first pass is
    checked; every later pass must repeat its tallies exactly."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - start < seconds):
        passes.append(run_pass(state, seed))
        if len(passes) > 1:
            passes[-1].compiled = []  # only the first pass is checked
        gc.collect()  # free the pass's cyclic garbage before the next
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        instrument(tracer)
        try:
            passes.append(run_pass(state, seed, tracer))
        finally:
            tracer.unwrap_all()

    first = passes[0]
    sampled = {id(r.done): r.done for r in state.get("rows", [])}
    for done in first.compiled + list(sampled.values()):
        check_compiled(done, checks, tracer)
    if "rows" in state:
        check_yield_rows(state["rows"], checks)
    for later in passes[1:]:
        checks.check(later.tallies == first.tallies,
                     "depth/fusions differ between passes of one seed")
        if first.mc:
            checks.check(
                [(r["yield_mc"], r["fault_free_yield"])
                 for r in later.mc["rows"].values()]
                == [(r["yield_mc"], r["fault_free_yield"])
                    for r in first.mc["rows"].values()],
                "fixed-seed MC tallies differ between passes",
            )

    # timings are reported at reference core speed (see SpeedProbe);
    # the raw samples and speeds are kept beside them
    untraced = passes[:1] if trace else passes
    out: Dict[str, Any] = {
        "passes": len(passes),
        "compile_s": median([p.compile_s * p.speed for p in untraced]),
        "compile_s_raw": [p.compile_s for p in untraced],
        "speed": [p.speed for p in passes],
        "depth_total": sum(depth for depth, _ in first.tallies),
        "fusions_total": sum(fusions for _, fusions in first.tallies),
        "pattern_nodes": first.pattern_nodes,
        "analytic_underflows": sum(
            analytic_underflow(c.program)
            for c in first.compiled + list(sampled.values())),
        "rows": [c.job.label for c in first.compiled],
    }
    if first.mc:
        out["mc_shots_per_s"] = median(
            [p.mc["shots_per_s"] for p in untraced])
        out["mc_degraded_shots_per_s"] = median(
            [p.mc["degraded_shots_per_s"] for p in untraced])
        out["mc_unresolved_frac"] = first.mc["unresolved"] / len(state["rows"])
        out["mc_rows"] = first.mc["rows"]
        out["work_per_s"] = out["mc_shots_per_s"]
    else:
        out["work_per_s"] = first.pattern_nodes / out["compile_s"]
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["layers"]["trace.overhead_s"] = (
            passes[-1].norm_wall_s - passes[0].norm_wall_s)
        out["tracer"] = tracer
    return out
