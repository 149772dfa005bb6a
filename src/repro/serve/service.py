"""In-process compilation service: request -> cached artifact.

:class:`CompileService` is the serving layer's core, independent of any
transport: the socket server wraps it, tests and the in-process API
call it directly.  A request names a circuit — a library benchmark spec
(``benchmark``/``qubits``) or raw QASM text — plus optional hardware /
noise / verification knobs; the response carries the compiled artifact
(depth, fusion tally, pattern size, stage timings, optional yield
estimate) and its cache provenance.

Request lifecycle:

1. **normalize** — :func:`normalize_request` validates shape and types
   and produces the canonical job dict (unknown fields are rejected so
   typos fail loudly instead of silently compiling the default);
2. **store lookup** — the job's content hash (:func:`job_key`) is
   checked against the two-tier :class:`~repro.serve.store.ArtifactStore`;
   a hit returns immediately with ``cache_tier`` set;
3. **single-flight dispatch** — on a miss the job runs on a worker
   process pool; concurrent requests for the *same* key join the
   in-flight future (``cache_tier="inflight"``) instead of compiling
   twice;
4. **publish** — the finished artifact lands in both store tiers, so
   the next request is a memory hit.

Compiles are deterministic, so a cache hit is exact: the artifact is
bit-identical to what a fresh compile would produce.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.serve.protocol import error_response
from repro.serve.store import ArtifactStore
from repro.sim.noisy import ENGINES as MC_ENGINES
from repro.utils.sync import make_lock

#: bump when the artifact payload shape changes: stale disk entries
#: then read as misses instead of surfacing old-shape artifacts
ARTIFACT_VERSION = 2

_VALID_RESOURCE_STATES = ("3-line", "4-line", "4-star", "4-ring")
_VALID_BENCHMARKS = ("QFT", "QAOA", "RCA", "BV")

#: compile-request fields and their validators/defaults; everything
#: else in a request is a hard error (``bad-request``)
_REQUEST_FIELDS = (
    "op",
    "benchmark",
    "qubits",
    "qasm",
    "name",
    "seed",
    "resource_state",
    "shots",
    "noise",
    "verify",
    "include_baseline",
    "mc_engine",
)


class RequestError(Exception):
    """A structurally invalid compile request."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def normalize_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Validate *request* and return the canonical job dict.

    The job dict is the compile's full identity: every field that can
    change the artifact is present with its default applied, so its
    content hash (:func:`job_key`) is stable across equivalent requests.
    """
    _require(isinstance(request, dict), "request must be a JSON object")
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    _require(not unknown, f"unknown request field(s): {', '.join(unknown)}")

    qasm = request.get("qasm")
    benchmark = request.get("benchmark")
    _require(
        (qasm is None) != (benchmark is None),
        "request must carry exactly one of 'qasm' or 'benchmark'",
    )

    job: Dict[str, Any] = {}
    if qasm is not None:
        _require(
            isinstance(qasm, str) and qasm.strip() != "",
            "'qasm' must be a non-empty string",
        )
        job["qasm"] = qasm
        name = request.get("name", "qasm-circuit")
        _require(isinstance(name, str) and name != "", "'name' must be a string")
        job["name"] = name
    else:
        _require(
            benchmark in _VALID_BENCHMARKS,
            f"'benchmark' must be one of {', '.join(_VALID_BENCHMARKS)}",
        )
        qubits = request.get("qubits", 16)
        _require(
            isinstance(qubits, int) and not isinstance(qubits, bool)
            and 1 <= qubits <= 256,
            "'qubits' must be an integer in [1, 256]",
        )
        job["benchmark"] = benchmark
        job["qubits"] = qubits

    seed = request.get("seed", 7)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        "'seed' must be an integer",
    )
    job["seed"] = seed

    resource_state = request.get("resource_state", "3-line")
    _require(
        resource_state in _VALID_RESOURCE_STATES,
        f"'resource_state' must be one of {', '.join(_VALID_RESOURCE_STATES)}",
    )
    job["resource_state"] = resource_state

    shots = request.get("shots", 0)
    _require(
        isinstance(shots, int) and not isinstance(shots, bool) and shots >= 0,
        "'shots' must be a non-negative integer",
    )
    job["shots"] = shots

    noise = request.get("noise", {})
    _require(isinstance(noise, dict), "'noise' must be an object")
    for key, value in noise.items():
        _require(
            isinstance(key, str) and isinstance(value, (int, float))
            and not isinstance(value, bool),
            f"noise override {key!r} must map a string to a number",
        )
    job["noise"] = {str(k): float(v) for k, v in sorted(noise.items())}

    for flag in ("verify", "include_baseline"):
        value = request.get(flag, False)
        _require(isinstance(value, bool), f"'{flag}' must be a boolean")
        job[flag] = value

    mc_engine = request.get("mc_engine", "frame")
    _require(
        mc_engine in MC_ENGINES,
        f"'mc_engine' must be one of {', '.join(MC_ENGINES)}",
    )
    job["mc_engine"] = mc_engine
    return job


def job_key(job: Dict[str, Any]) -> str:
    """Content hash of a normalized job (the artifact's cache identity)."""
    payload = dict(job)
    payload["artifact_version"] = ARTIFACT_VERSION
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def compile_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one normalized job (runs inside a worker process)."""
    if "qasm" in job:
        return _compile_qasm_job(job)
    return _compile_benchmark_job(job)


def _compile_benchmark_job(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro.eval.batch import RunSpec, execute_spec

    spec = RunSpec(
        benchmark=job["benchmark"],
        num_qubits=job["qubits"],
        seed=job["seed"],
        resource_state=job["resource_state"],
        include_baseline=job["include_baseline"],
        verify=job["verify"],
        shots=job["shots"],
        noise=tuple(sorted(job["noise"].items())),
        mc_engine=job["mc_engine"],
    )
    artifact = asdict(execute_spec(spec))
    # cache provenance belongs to the store envelope, not the artifact
    for field in ("cached", "cache_tier", "cache_age_seconds"):
        artifact.pop(field, None)
    artifact["kind"] = "benchmark"
    return artifact


def _compile_qasm_job(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro.circuit.qasm import from_qasm
    from repro.core.compiler import OneQCompiler, OneQConfig
    from repro.eval.experiments import _hardware_for
    from repro.hardware.resource_state import get_resource_state
    from repro.mbqc.translate import circuit_to_pattern

    circuit = from_qasm(job["qasm"])
    rst = get_resource_state(job["resource_state"])
    hardware = _hardware_for(circuit.num_qubits, rst)
    compiler = OneQCompiler(OneQConfig(hardware=hardware))
    t0 = time.perf_counter()
    pattern = circuit_to_pattern(circuit)
    program = compiler.compile_pattern(
        pattern, name=job["name"], num_qubits=circuit.num_qubits
    )
    seconds = time.perf_counter() - t0

    artifact: Dict[str, Any] = {
        "kind": "qasm",
        "name": job["name"],
        "num_qubits": circuit.num_qubits,
        "seed": job["seed"],
        "resource_state": job["resource_state"],
        "depth": program.physical_depth,
        "num_fusions": program.num_fusions,
        "mapping_layers": program.mapping_layers,
        "shuffle_layers": program.shuffle_layers,
        "num_partitions": program.num_partitions,
        "pattern_nodes": program.pattern_nodes,
        "pattern_edges": program.pattern_edges,
        "seconds": seconds,
        "stage_seconds": {
            stage: round(value, 6)
            for stage, value in program.stage_seconds.items()
        },
        "verified": None,
        "verify_method": None,
        "yield_analytic": None,
        "yield_mc": None,
        "shots": 0,
        "baseline_depth": None,
        "baseline_fusions": None,
        "depth_improvement": None,
        "fusion_improvement": None,
    }
    if job["include_baseline"]:
        from repro.eval.batch import baseline_columns

        artifact.update(
            baseline_columns(
                circuit, program, job["name"], job["resource_state"]
            )
        )
    if job["verify"]:
        from repro.core.validate import verify_pattern

        report = verify_pattern(circuit, pattern=pattern, seed=job["seed"])
        artifact["verified"] = report.ok
        artifact["verify_method"] = report.method
    if job["shots"] > 0:
        from repro.core.validate import estimate_yield
        from repro.hardware.noise import NoiseModel
        from repro.sim.noisy import FaultCounts

        estimate = estimate_yield(
            circuit,
            pattern=pattern,
            model=NoiseModel(**job["noise"]),
            shots=job["shots"],
            seed=job["seed"],
            counts=FaultCounts.from_program(program),
            engine=job["mc_engine"],
        )
        artifact["shots"] = estimate.shots
        artifact["yield_mc"] = estimate.yield_mc
        artifact["yield_analytic"] = estimate.yield_analytic
    return artifact


class CompileService:
    """Cache-first compile dispatcher over a worker process pool.

    Thread-safe: the socket server calls :meth:`handle` from many
    threads at once.  ``workers`` bounds the process pool (default:
    ``min(4, cpu_count)``); the pool starts lazily on the first miss,
    so a service that only ever hits cache never forks.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[Any] = None,
        memory_capacity: int = 256,
    ) -> None:
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store = ArtifactStore(
            cache_dir=cache_dir,
            memory_capacity=memory_capacity,
            schema_version=ARTIFACT_VERSION,
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, "Future[Dict[str, Any]]"] = {}
        self._lock = make_lock("CompileService._lock")
        self._closed = False
        self.jobs_completed = 0
        self.jobs_failed = 0
        #: broken executors (a worker died mid-flight) replaced so far
        self.pool_restarts = 0
        self._started_at = time.time()

    # -- dispatch ------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; never raises, always returns a dict."""
        op = request.get("op", "compile")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "compile":
            return self._handle_compile(request)
        return error_response("unknown-op", f"unknown op {op!r}")

    def _handle_compile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        try:
            job = normalize_request(request)
        except RequestError as exc:
            return error_response("bad-request", exc.message)
        key = job_key(job)

        hit = self.store.get(key)
        if hit is not None:
            return {
                "ok": True,
                "key": key,
                "cache_tier": hit.tier,
                "cache_age_seconds": round(hit.age_seconds, 3),
                "seconds": time.perf_counter() - t0,
                "artifact": hit.artifact,
            }

        future, owner = self._dispatch(key, job)
        if future is None:
            return error_response(
                "shutting-down", "service is draining; compile rejected"
            )
        try:
            artifact = future.result()
        except Exception as exc:  # worker raised: report, don't crash
            # only the owner counts the failure and retires the entry: a
            # late joiner popping it could drop a newer job for this key
            if owner:
                with self._lock:
                    self._inflight.pop(key, None)
                    self.jobs_failed += 1
            # a dead worker breaks the whole pool: every job on it fails
            # with BrokenProcessPool, and the next dispatch replaces it
            code = (
                "worker-crashed" if isinstance(exc, BrokenProcessPool)
                else "compile-error"
            )
            return error_response(
                code, f"{type(exc).__name__}: {exc}", key=key
            )
        if owner:
            self.store.put(key, artifact)
            with self._lock:
                self._inflight.pop(key, None)
                self.jobs_completed += 1
        return {
            "ok": True,
            "key": key,
            "cache_tier": None if owner else "inflight",
            "cache_age_seconds": None,
            "seconds": time.perf_counter() - t0,
            "artifact": artifact,
        }

    def _dispatch(
        self, key: str, job: Dict[str, Any]
    ) -> Tuple[Optional["Future[Dict[str, Any]]"], bool]:
        """The future computing *key*'s artifact, plus ownership.

        The owner (the caller that actually submitted the job) is
        responsible for publishing the artifact and retiring the
        in-flight entry; joiners just wait.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                return existing, False
            if self._closed:
                return None, False
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            try:
                future = self._executor.submit(compile_job, job)
            except BrokenProcessPool:  # a worker died: start a fresh pool
                self._executor.shutdown(wait=False)
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                self.pool_restarts += 1
                future = self._executor.submit(compile_job, job)
            except RuntimeError:  # interpreter is shutting down
                return None, False
            self._inflight[key] = future
            return future, True

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight = len(self._inflight)
            jobs_completed = self.jobs_completed
            jobs_failed = self.jobs_failed
            pool_restarts = self.pool_restarts
        return {
            "workers": self.workers,
            "jobs_completed": jobs_completed,
            "jobs_failed": jobs_failed,
            "inflight": inflight,
            "pool_restarts": pool_restarts,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "store": self.store.stats.as_dict(),
        }

    # -- lifecycle -----------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting compiles; ``drain=True`` waits for in-flight
        jobs to finish first."""
        with self._lock:
            self._closed = True
            executor = self._executor
        if executor is not None:
            executor.shutdown(wait=drain)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
