"""The ``serve-mix`` workload: open-loop Poisson traffic against a
``repro serve`` process.

Connection 1 carries hits: draws from a pre-warmed hot set of 1.5x the
memory tier's capacity, skewed so that the head is served from memory
and the tail from disk.  Connection 2 carries misses: fresh-seed
QAOA-16 compiles that go through the worker pool and ``store.put``.
Each connection is one client thread that sends each request when it
is due (or as soon as the previous answer arrives, if that is later);
latency runs from the due time, so a stall also charges the requests
queued behind it.

The benchmark, the server and its workers share one pinned CPU, so the
``SpeedProbe`` beside the load generator measures the core that does
the serving.  A base step at fixed rates fills the ``--seconds`` and
gives the gated figures, from the CPU seconds of the server's process
tree (read from ``/proc``) at reference core speed: the worker pool's
CPU seconds per miss and the requests served per server CPU second.
It also gives the latencies, which are reported.  A ladder of rates in
units of the miss path's capacity follows, and the knee is where a line
fitted to the steps' ``log load`` over ``log rate`` reaches the limits;
the knee is reported, not gated.

Where the numbers come from:

* memory tier: the server's default ``--mem-capacity`` (256), so the
  hot set is 384 jobs.  They are BV-10, -12, -14 and -16 with seeds
  1-96, the circuit of the repo's own ``cold-seeds`` serving cell
  (BV-12 at ~207 rps, ~5 ms a compile, in
  ``benchmarks/BENCH_serving.json``), so warming them takes a second
  or two;
* misses: QAOA-16 with a fresh seed, about 75 ms from send to artifact
  at reference core speed, so one connection serves about 13 misses/s;
* hits: 10 per miss (a 91% hit share), at most a few hundred per
  second, far below the ~6000 rps one connection reaches on hot hits
  in ``BENCH_serving.json``: the hit path is loaded by the compiles
  beside it, not by its own rate.  The ratio is a choice; the repo has
  no recorded traffic to take it from;
* popularity: Zipf with exponent 1 (the textbook popularity law, also
  a choice), so the 128 jobs beyond the memory tier draw about 6% of
  hits;
* limits: hits 50 ms (about 50x the ~0.9 ms hot p95 of
  ``BENCH_serving.json``, so only a stalled hit path misses it); misses
  250 ms, about 3 miss service times, so a miss may queue behind about
  two others;
* sample sizes: the base step offers 4 misses per ``--seconds`` (80
  at 20 s); every ladder step has 40 misses; 10 hits per miss, so each
  step has a p75 miss tail and a p97.5 hit tail with 10 samples beyond.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from bench_stats import (
    SpeedProbe,
    knee_rate,
    median,
    poisson_arrivals,
    process_tree_cpu,
    skewed_draws,
    step_load,
    summarize,
)

#: the server's default in-memory LRU capacity (``repro serve
#: --mem-capacity``); the hot set is 1.5x this
MEM_CAPACITY = 256
HOT_SET: Tuple[Dict[str, Any], ...] = tuple(
    {"benchmark": "BV", "qubits": n, "seed": s}
    for n in (10, 12, 14, 16) for s in range(1, 97)
)
MISS_JOB = {"benchmark": "QAOA", "qubits": 16}
#: hit requests offered per miss request
HITS_PER_MISS = 10
#: base step: misses per second (raw), about a third of the miss
#: path's capacity at reference core speed, for the whole ``--seconds``
BASE_MISS_RATE = 4.0
#: ladder steps, as multiples of the miss path's capacity measured in
#: the base step (1 / median miss response); 1.2x apart
LADDER = (0.72, 0.864, 1.037, 1.244)
#: tail limits a step must meet, from due time, at reference core speed
HIT_LIMIT_MS = 50.0
MISS_LIMIT_MS = 250.0
#: misses per step (the base step offers more on a long ``--seconds``)
MIN_MISSES = 40


class Server:
    """A ``repro serve`` child process with a fresh cache directory."""

    def __init__(self, root: str, work_dir: str, tag: str) -> None:
        self.cache_dir = os.path.join(work_dir, f"serve-cache-{tag}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.log_path = os.path.join(work_dir, f"serve-{tag}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            # -u: the "listening on" line must reach the log unbuffered
            [sys.executable, "-u", "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0", "--cache", self.cache_dir],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.host, self.port = self._wait_listening(timeout=60.0)

    def _wait_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                for line in fh:
                    if "listening on" in line:
                        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                        return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def client(self):
        from repro.serve.client import CompileClient

        return CompileClient(self.host, self.port, timeout=60.0, retries=0)

    def stop(self) -> None:
        """Ask for a drained shutdown, then make sure the process is gone."""
        if self.proc.poll() is None and getattr(self, "port", None):
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.proc.returncode == 0:  # keep the log of a server that failed
            os.remove(self.log_path)


def _request(job: Dict[str, Any]) -> Dict[str, Any]:
    return {"op": "compile", **job}


def hot_order(seed: int) -> List[int]:
    """Hot-set indices by popularity rank (rank 0 is the hottest); the
    seed picks which jobs are hot."""
    order = list(range(len(HOT_SET)))
    random.Random(seed).shuffle(order)
    return order


def warm(server: Server, order: List[int]) -> List[Dict[str, Any]]:
    """Compile the hot set through the server, least popular first, on
    two connections, so the popular head is what the memory tier keeps;
    returns the artifacts in hot-set order."""
    artifacts: List[Optional[Dict[str, Any]]] = [None] * len(HOT_SET)
    tail_first = order[::-1]
    errors: List[str] = []

    def worker(indices: List[int]) -> None:
        with server.client() as client:
            for i in indices:
                response = client.request(_request(HOT_SET[i]))
                if response.get("ok"):
                    artifacts[i] = response["artifact"]
                else:
                    errors.append(f"warm-up {HOT_SET[i]}: {response}")

    threads = [threading.Thread(target=worker, args=(tail_first[k::2],))
               for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors or any(a is None for a in artifacts):
        raise RuntimeError(f"hot-set warm-up failed: {errors[:1]}")
    return artifacts  # type: ignore[return-value]


def setup(root: str, work_dir: str, tag: str,
          seed: int) -> Tuple[Server, List[Dict], float]:
    """Start a server and warm its cache; returns the set-up seconds."""
    t0 = time.perf_counter()
    server = Server(root, work_dir, tag)
    try:
        artifacts = warm(server, hot_order(seed))
    except BaseException:
        server.stop()
        raise
    return server, artifacts, time.perf_counter() - t0


# ----------------------------------------------------------------------
# open-loop driving
# ----------------------------------------------------------------------
@dataclass
class Sample:
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class Step:
    miss_rps: float
    hits: List[Sample] = field(default_factory=list)
    misses: List[Sample] = field(default_factory=list)
    #: core speed over the step (:class:`bench_stats.SpeedProbe`)
    speed: float = 1.0
    #: CPU seconds over the step of the server's process tree, and of
    #: its worker pool alone
    server_cpu_s: float = 0.0
    pool_cpu_s: float = 0.0
    probe: Optional[SpeedProbe] = None

    @property
    def offered_rps(self) -> float:
        return self.miss_rps * (1 + HITS_PER_MISS)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.hits + self.misses)

    def load(self, speed: float = 1.0) -> float:
        """:func:`bench_stats.step_load` with latencies scaled by *speed*."""
        return step_load(
            [s.latency_ms * speed for s in self.hits if s.ok],
            [s.latency_ms * speed for s in self.misses if s.ok],
            self.failed, HIT_LIMIT_MS, MISS_LIMIT_MS,
        )


def _drive(server: Server, schedule: List[Tuple[float, Dict]],
           out: List[Sample]) -> None:
    """One connection: send each request at its due time, in order
    (late when the previous answer came after it)."""
    with server.client() as client:
        for due, request in schedule:
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sample = Sample(due=due, sent=time.perf_counter())
            try:
                sample.response = client.request(request, idempotent=False)
            except OSError as exc:
                sample.response = {"ok": False, "error": repr(exc)}
            sample.received = time.perf_counter()
            out.append(sample)


def run_step(server: Server, miss_rps: float, misses: int,
             rng: random.Random, order: List[int]) -> Step:
    """Offer *misses* misses at *miss_rps* and ``HITS_PER_MISS`` hits
    per miss over the same interval."""
    start = time.perf_counter() + 0.05
    stop = start + misses / miss_rps
    hit_due = poisson_arrivals(misses * HITS_PER_MISS, start, stop, rng)
    miss_due = poisson_arrivals(misses, start, stop, rng)
    draws = skewed_draws(len(hit_due), len(order), rng)
    hit_schedule = [(t, _request(HOT_SET[order[d]]))
                    for t, d in zip(hit_due, draws)]
    miss_schedule = [
        (t, _request({**MISS_JOB, "seed": rng.randrange(10**6, 10**9)}))
        for t in miss_due
    ]
    step = Step(miss_rps)
    threads = [
        threading.Thread(target=_drive, args=(server, hit_schedule, step.hits)),
        threading.Thread(target=_drive, args=(server, miss_schedule, step.misses)),
    ]
    cpu0 = process_tree_cpu(server.proc.pid)
    with SpeedProbe() as probe:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    used = {proc: seconds - cpu0.get(proc, 0.0)
            for proc, seconds in process_tree_cpu(server.proc.pid).items()}
    step.server_cpu_s = sum(used.values())
    step.pool_cpu_s = step.server_cpu_s - used[server.proc.pid]
    step.speed, step.probe = probe.speed, probe
    return step


def run_ladder(server: Server, seed: int, seconds: float) -> List[Step]:
    """The base step over *seconds*, then every ladder step (none if no
    miss of the base step was answered)."""
    rng = random.Random(seed)
    order = hot_order(seed)
    base_misses = max(MIN_MISSES, round(BASE_MISS_RATE * seconds))
    steps = [run_step(server, BASE_MISS_RATE, base_misses, rng, order)]
    base = [s for s in steps[0].misses if s.ok]
    if not base:
        return steps
    capacity = 1.0 / median([s.received - s.sent for s in base])
    for multiple in LADDER:
        steps.append(run_step(server, multiple * capacity, MIN_MISSES, rng,
                              order))
    return steps


def measure(server: Server, artifacts: List[Dict[str, Any]], seed: int,
            seconds: float, checks) -> Dict[str, Any]:
    """Drive the base step and the ladder; check every response."""
    with server.client() as client:
        before = client.stats()["store"]
    # the warm-up filled the memory tier: its evictions show the
    # capacity the hot set was sized for
    checks.check(before["evictions"] == len(HOT_SET) - MEM_CAPACITY,
                 f"memory tier holds {len(HOT_SET) - before['evictions']} "
                 f"artifacts after warm-up, expected {MEM_CAPACITY}")
    steps = run_ladder(server, seed, seconds)
    with server.client() as client:
        after = client.stats()["store"]

    for step in steps:
        for sample in step.hits:
            checks.check(
                sample.ok and sample.response.get("cache_tier") in ("memory", "disk"),
                f"hit request not served from cache: {str(sample.response)[:200]}",
            )
        for sample in step.misses:
            checks.check(
                sample.ok and sample.response.get("cache_tier") is None,
                f"miss request not compiled: {str(sample.response)[:200]}",
            )

    base = steps[0]
    hits = [s for s in base.hits if s.ok]
    misses = [s for s in base.misses if s.ok]
    every = hits + misses
    # (raw seconds from send to artifact, speed while it ran) of every
    # base-step miss
    miss_samples = [(s.received - s.sent,
                     base.probe.speed_during([(s.sent, s.received)]))
                    for s in misses]
    # the compiles take most of the server's CPU: its speed is theirs
    busy_speed = base.probe.speed_during([(s.sent, s.received)
                                          for s in misses])
    out: Dict[str, Any] = {
        "speed": base.speed,
        "busy_speed": busy_speed,
        # CPU seconds the worker pool spent per miss (compile plus the
        # worker's side of the hand-over), at reference core speed.
        # CPU time leaves out the waits for the core that make a miss's
        # wall time swing with the machine (see README.md)
        "compile_s": base.pool_cpu_s * busy_speed / len(misses),
        # the response time a client sees, from send, each miss at the
        # core speed sampled while it ran; reported, not gated
        "miss_response_s": median([raw * speed
                                   for raw, speed in miss_samples]),
        "miss_response_raw_s": median([raw for raw, _ in miss_samples]),
        "miss_samples": miss_samples,
        # requests answered per server CPU second at reference core
        # speed: the serving capacity of one core for this mix
        "work_per_s": len(every) / (base.server_cpu_s * busy_speed),
        "server_cpu_s": base.server_cpu_s,
        "pool_cpu_s": base.pool_cpu_s,
        # the knee over every step at reference core speed: rates /
        # speed, latencies * speed, per step; the raw knee is kept
        # beside it
        "knee_rps": knee_rate(
            [(s.offered_rps / s.speed, s.load(s.speed)) for s in steps]),
        "knee_raw_rps": knee_rate(
            [(s.offered_rps, s.load()) for s in steps]),
        "depth_total": sum(a["depth"] for a in artifacts),
        "fusions_total": sum(a["num_fusions"] for a in artifacts),
        "hit_ms": summarize([s.latency_ms for s in hits]),
        "miss_ms": summarize([s.latency_ms for s in misses]),
        "late_ms": summarize([s.late_ms for s in every]),
        "ladder": [
            {"offered_rps": s.offered_rps, "speed": s.speed,
             "server_cpu_s": s.server_cpu_s, "pool_cpu_s": s.pool_cpu_s,
             "load": s.load(s.speed), "hits": len(s.hits),
             "misses": len(s.misses), "failed": s.failed,
             "hit_ms": summarize([x.latency_ms for x in s.hits if x.ok]),
             "miss_ms": summarize([x.latency_ms for x in s.misses if x.ok])}
            for s in steps
        ],
        "layers": {
            "serve.hit_ms_p50": median([s.latency_ms for s in hits]),
            "serve.wire_ms_p50": median(
                [(s.received - s.sent - s.response["seconds"]) * 1000.0
                 for s in every]),
            "service.queue_wait_ms_p50": median(
                [(s.received - s.sent - s.response["artifact"]["seconds"])
                 * 1000.0 for s in misses]),
            "pool.compile_ms_p50": median(
                [s.response["artifact"]["seconds"] * 1000.0 for s in misses]),
            "loadgen.late_ms_tail": summarize(
                [s.late_ms for s in every])["tail"] or 0.0,
            **{f"store.{k}": after[k] - before[k]
               for k in ("memory_hits", "disk_hits", "puts", "evictions")},
        },
    }
    return out


def check_hot_set(artifacts: List[Dict[str, Any]], checks,
                  tracer=None) -> Tuple[float, int]:
    """Compile the hot set in-process and compare depth and #fusions
    with the served artifacts; returns the compile wall seconds and the
    number of analytic-yield underflows among the programs."""
    from bench_compile import (
        analytic_underflow, check_run_table, compile_job, make_jobs)

    keys = [(j["benchmark"], j["qubits"], j["seed"]) for j in HOT_SET]
    underflows = 0
    t0 = time.perf_counter()
    for item, artifact in zip(make_jobs(keys), artifacts):
        program = compile_job(item, tracer).program
        underflows += analytic_underflow(program)
        got = (artifact["depth"], artifact["num_fusions"])
        want = (program.physical_depth, program.num_fusions)
        checks.check(got == want,
                     f"served {item.label} (seed {item.key[2]}) has "
                     f"depth/fusions {got}, in-process compile {want}")
        check_run_table(item.key, want, checks)
    return time.perf_counter() - t0, underflows
