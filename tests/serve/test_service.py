"""Tests for the in-process CompileService and request normalization."""

import threading

import pytest

from repro.serve.service import (
    CompileService,
    RequestError,
    job_key,
    normalize_request,
)


class TestNormalizeRequest:
    def test_benchmark_defaults_applied(self):
        job = normalize_request({"op": "compile", "benchmark": "QFT"})
        assert job["benchmark"] == "QFT"
        assert job["qubits"] == 16
        assert job["seed"] == 7
        assert job["resource_state"] == "3-line"
        assert job["shots"] == 0
        assert job["mc_engine"] == "frame"
        assert job["verify"] is False

    def test_equivalent_requests_share_a_key(self):
        explicit = normalize_request(
            {"op": "compile", "benchmark": "QFT", "qubits": 16, "seed": 7}
        )
        defaulted = normalize_request({"op": "compile", "benchmark": "QFT"})
        assert job_key(explicit) == job_key(defaulted)

    def test_key_sensitive_to_every_axis(self):
        base = normalize_request({"op": "compile", "benchmark": "QFT"})
        for override in (
            {"qubits": 17},
            {"seed": 8},
            {"resource_state": "4-star"},
            {"shots": 100},
            {"noise": {"cycle_loss": 0.01}},
            {"verify": True},
            {"mc_engine": "per-shot"},
        ):
            other = normalize_request(
                {"op": "compile", "benchmark": "QFT", **override}
            )
            assert job_key(other) != job_key(base), override

    def test_qasm_form(self):
        job = normalize_request(
            {"op": "compile", "qasm": "OPENQASM 2.0;", "name": "mine"}
        )
        assert job["qasm"] == "OPENQASM 2.0;"
        assert job["name"] == "mine"
        assert "benchmark" not in job

    @pytest.mark.parametrize(
        "request_payload",
        [
            {},  # neither qasm nor benchmark
            {"benchmark": "QFT", "qasm": "x"},  # both
            {"benchmark": "NOPE"},
            {"benchmark": "QFT", "qubits": 0},
            {"benchmark": "QFT", "qubits": 300},
            {"benchmark": "QFT", "qubits": "16"},
            {"benchmark": "QFT", "qubits": True},
            {"benchmark": "QFT", "seed": 1.5},
            {"benchmark": "QFT", "resource_state": "5-blob"},
            {"benchmark": "QFT", "shots": -1},
            {"benchmark": "QFT", "noise": [1, 2]},
            {"benchmark": "QFT", "noise": {"cycle_loss": "high"}},
            {"benchmark": "QFT", "verify": "yes"},
            {"benchmark": "QFT", "mc_engine": "warp"},
            {"benchmark": "QFT", "mc_engine": "batched"},
            {"benchmark": "QFT", "typo_field": 1},
            {"qasm": ""},
            {"qasm": "   "},
        ],
    )
    def test_invalid_requests_rejected(self, request_payload):
        with pytest.raises(RequestError):
            normalize_request({"op": "compile", **request_payload})

    def test_noise_is_canonicalized(self):
        a = normalize_request(
            {"op": "compile", "benchmark": "BV",
             "noise": {"cycle_loss": 0.01, "fusion_success": 0.5}}
        )
        b = normalize_request(
            {"op": "compile", "benchmark": "BV",
             "noise": {"fusion_success": 0.5, "cycle_loss": 0.01}}
        )
        assert job_key(a) == job_key(b)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with CompileService(
        workers=2, cache_dir=tmp_path_factory.mktemp("serve-cache")
    ) as svc:
        yield svc


class TestCompileService:
    def test_miss_then_memory_hit_bit_identical(self, service):
        request = {"op": "compile", "benchmark": "BV", "qubits": 8}
        first = service.handle(request)
        assert first["ok"], first
        assert first["cache_tier"] is None
        second = service.handle(request)
        assert second["ok"]
        assert second["cache_tier"] == "memory"
        assert second["cache_age_seconds"] >= 0.0
        assert second["artifact"] == first["artifact"]
        assert first["artifact"]["depth"] >= 1
        assert first["artifact"]["kind"] == "benchmark"

    def test_disk_tier_survives_memory_clear(self, service):
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        first = service.handle(request)
        service.store.clear_memory()
        second = service.handle(request)
        assert second["cache_tier"] == "disk"
        assert second["artifact"] == first["artifact"]

    def test_qasm_request_compiles_and_caches(self, service):
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm

        qasm = to_qasm(get_benchmark("BV", 6, seed=7))
        request = {"op": "compile", "qasm": qasm, "name": "bv6"}
        first = service.handle(request)
        assert first["ok"], first
        assert first["artifact"]["kind"] == "qasm"
        assert first["artifact"]["num_qubits"] == 6
        assert first["artifact"]["depth"] >= 1
        second = service.handle(request)
        assert second["cache_tier"] == "memory"
        assert second["artifact"] == first["artifact"]

    def test_qasm_request_honours_include_baseline(self, service):
        """The flag is part of the job key, so it must change the
        artifact: the baseline columns appear under the run-table
        names the benchmark artifacts use."""
        from dataclasses import fields

        from repro.baseline.interpreter import compile_baseline
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import from_qasm, to_qasm
        from repro.eval.batch import RunRecord
        from repro.hardware.resource_state import get_resource_state

        qasm = to_qasm(get_benchmark("BV", 6, seed=7))
        request = {"op": "compile", "qasm": qasm, "name": "bv6"}
        plain = service.handle(request)
        response = service.handle(dict(request, include_baseline=True))
        assert response["ok"], response
        assert response["key"] != plain["key"]
        artifact = response["artifact"]
        baseline = compile_baseline(
            from_qasm(qasm),
            name="bv6",
            resource_state=get_resource_state("3-line"),
        )
        assert artifact["baseline_depth"] == baseline.depth
        assert artifact["baseline_fusions"] == baseline.num_fusions
        assert artifact["depth_improvement"] == pytest.approx(
            baseline.depth / artifact["depth"]
        )
        assert artifact["fusion_improvement"] == pytest.approx(
            baseline.num_fusions / artifact["num_fusions"]
        )
        columns = {
            "baseline_depth",
            "baseline_fusions",
            "depth_improvement",
            "fusion_improvement",
        }
        assert columns <= {f.name for f in fields(RunRecord)}
        assert all(plain["artifact"][name] is None for name in columns)

    def test_qasm_artifact_matches_benchmark_artifact(self, service):
        """A QASM job is the benchmark job on the parsed circuit: same
        artifact columns, same measured values, only the label and
        ``kind`` differ."""
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm

        knobs = {"verify": True, "shots": 300, "include_baseline": True}
        qasm = service.handle(
            dict(
                knobs,
                op="compile",
                qasm=to_qasm(get_benchmark("BV", 6, seed=7)),
                name="bv6",
            )
        )["artifact"]
        bench = service.handle(
            dict(knobs, op="compile", benchmark="BV", qubits=6)
        )["artifact"]
        assert set(qasm) == set(bench)
        assert (qasm["kind"], qasm["benchmark"]) == ("qasm", "bv6")
        for column in (
            "num_qubits", "depth", "num_fusions", "mapping_layers",
            "verified", "verify_method", "shots", "yield_mc",
            "yield_analytic", "baseline_depth", "baseline_fusions",
        ):
            assert qasm[column] == bench[column], column

    def test_yield_estimate_in_artifact(self, service):
        response = service.handle(
            {"op": "compile", "benchmark": "BV", "qubits": 6, "shots": 200}
        )
        assert response["ok"]
        artifact = response["artifact"]
        assert artifact["shots"] == 200
        assert 0.0 <= artifact["yield_mc"] <= 1.0
        assert 0.0 < artifact["yield_analytic"] < 1.0

    def test_ping_and_stats_ops(self, service):
        assert service.handle({"op": "ping"})["ok"] is True
        response = service.handle({"op": "stats"})
        assert response["ok"] is True
        stats = response["stats"]
        assert stats["workers"] == 2
        assert stats["jobs_completed"] >= 1
        assert stats["store"]["puts"] >= 1
        assert 0.0 <= stats["store"]["hit_rate"] <= 1.0

    def test_unknown_op_rejected(self, service):
        response = service.handle({"op": "teleport"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-op"

    def test_bad_request_rejected(self, service):
        response = service.handle({"op": "compile", "benchmark": "NOPE"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "benchmark" in response["error"]["message"]

    def test_worker_exception_reported_not_raised(self, service):
        response = service.handle(
            {"op": "compile", "qasm": "this is not qasm", "name": "bad"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "compile-error"

    def test_single_flight_joins_inflight_compile(self, tmp_path):
        """Concurrent identical requests trigger exactly one compile."""
        with CompileService(workers=2, cache_dir=tmp_path) as svc:
            request = {"op": "compile", "benchmark": "QFT", "qubits": 12}
            responses = [None] * 4

            def issue(slot):
                responses[slot] = svc.handle(request)

            threads = [
                threading.Thread(target=issue, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(r["ok"] for r in responses)
            artifacts = [r["artifact"] for r in responses]
            assert all(a == artifacts[0] for a in artifacts)
            # exactly one request actually compiled; the rest joined the
            # in-flight future or hit the store it populated
            fresh = [r for r in responses if r["cache_tier"] is None]
            assert len(fresh) == 1
            assert svc.jobs_completed == 1

    def test_failed_job_counted_once_for_all_joiners(self, tmp_path):
        """Requests joining one failing single-flight job share a single
        failure: only the owner counts it and retires the in-flight
        entry (a joiner retiring it could drop a newer job's future)."""
        from concurrent.futures import Future

        job_future: Future = Future()

        class HeldExecutor:
            """Hands every submit the same future, completed by hand."""

            def submit(self, fn, *args):
                return job_future

            def shutdown(self, wait=True):
                pass

        waiters = 4
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            svc._executor = HeldExecutor()
            dispatched = threading.Semaphore(0)
            dispatch = svc._dispatch

            def counting_dispatch(key, job):
                result = dispatch(key, job)
                dispatched.release()
                return result

            svc._dispatch = counting_dispatch
            request = {"op": "compile", "benchmark": "BV", "qubits": 6}
            responses = [None] * waiters

            def issue(slot):
                responses[slot] = svc.handle(request)

            threads = [
                threading.Thread(target=issue, args=(slot,))
                for slot in range(waiters)
            ]
            for thread in threads:
                thread.start()
            # every request owns or has joined the one future
            for _ in range(waiters):
                assert dispatched.acquire(timeout=10)
            job_future.set_exception(RuntimeError("worker blew up"))
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert all(
                r["error"]["code"] == "compile-error" for r in responses
            )
            stats = svc.stats()
            assert stats["jobs_failed"] == 1
            assert stats["inflight"] == 0

    def test_worker_crash_fails_job_then_pool_recovers(self, tmp_path):
        """A SIGKILLed worker fails its in-flight job with
        ``worker-crashed``; the broken pool is replaced, so the next
        compile succeeds instead of every later request being refused."""
        import multiprocessing
        import os
        import signal
        import time

        before = {p.pid for p in multiprocessing.active_children()}
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            responses = []
            slow = {"op": "compile", "benchmark": "QFT", "qubits": 100}
            thread = threading.Thread(
                target=lambda: responses.append(svc.handle(slow))
            )
            thread.start()
            workers = []
            deadline = time.monotonic() + 30
            while not workers and time.monotonic() < deadline:
                workers = [
                    p for p in multiprocessing.active_children()
                    if p.pid not in before
                ]
                time.sleep(0.01)
            assert workers, "the pool never started a worker"
            os.kill(workers[0].pid, signal.SIGKILL)
            thread.join(60)
            assert not thread.is_alive()
            [crashed] = responses
            assert crashed["ok"] is False
            assert crashed["error"]["code"] == "worker-crashed"

            after = svc.handle({"op": "compile", "benchmark": "BV", "qubits": 6})
            assert after["ok"], after
            stats = svc.stats()
            assert stats["pool_restarts"] == 1
            assert stats["jobs_failed"] == 1
            assert stats["inflight"] == 0

    def test_single_flight_under_sanitizer(self, tmp_path, lock_sanitizer):
        """Single-flight + torn-stat guarantees hold under TrackedLock.

        Seeded hammer: many threads issue a mix of identical and
        distinct compile requests with the lock-order sanitizer active.
        Afterwards the dynamic witness must be acyclic and consistent
        with the static acquisition graph, both service locks must have
        actually recorded acquisitions, exactly one fresh compile per
        distinct key must have happened, and the jobs_completed counter
        must not be torn.
        """
        import pathlib
        import random

        from repro.analysis.concurrency import ConcurrencyAnalyzer
        from repro.utils import sync

        registry = lock_sanitizer
        with CompileService(workers=2, cache_dir=tmp_path) as svc:
            assert isinstance(svc._lock, sync.TrackedLock)
            requests = [
                {"op": "compile", "benchmark": "BV", "qubits": q}
                for q in (6, 7)
            ]
            responses = []
            responses_lock = threading.Lock()

            def issue(worker_id):
                rng = random.Random(2000 + worker_id)
                for _ in range(3):
                    response = svc.handle(rng.choice(requests))
                    with responses_lock:
                        responses.append(response)

            threads = [
                threading.Thread(target=issue, args=(i,))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert all(r["ok"] for r in responses)
            fresh = [r for r in responses if r["cache_tier"] is None]
            served_keys = {r["key"] for r in responses}
            # exactly one fresh compile per distinct key, and the
            # completion counter agrees (no torn increments)
            assert len(fresh) == len({r["key"] for r in fresh})
            assert svc.stats()["jobs_completed"] == len(fresh)
            assert len(served_keys) <= len(requests)

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        analyzer = ConcurrencyAnalyzer()
        analyzer.add_paths([src / "serve", src / "utils"])
        sync.check_witness_against(
            analyzer.lock_order_edges(),
            registry,
            require_locks=[
                "CompileService._lock",
                "MemoryLRU._lock",
                "ArtifactStore._lock",
            ],
        )

    def test_close_rejects_new_compiles(self, tmp_path):
        svc = CompileService(workers=1, cache_dir=tmp_path)
        warm = {"op": "compile", "benchmark": "BV", "qubits": 6}
        assert svc.handle(warm)["ok"]
        svc.close()
        # cached artifacts still serve after close ...
        assert svc.handle(warm)["cache_tier"] == "memory"
        # ... but new compiles are refused
        response = svc.handle({"op": "compile", "benchmark": "BV", "qubits": 7})
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting-down"
