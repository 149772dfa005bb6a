"""End-to-end socket tests for the compile server.

The ISSUE-8 service checklist: ephemeral-port server, QFT-16 submitted
twice (second response a bit-identical cache hit), malformed-request
and oversized-payload rejection, graceful shutdown (in-flight jobs
complete, queue drains).
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.serve.client import CompileClient, ServerClosedError
from repro.serve.protocol import HEADER, recv_frame, send_frame
from repro.serve.server import ServerThread


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = ServerThread(
        workers=2, cache_dir=tmp_path_factory.mktemp("server-cache")
    ).start()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with CompileClient(server.host, server.port) as c:
        yield c


class TestEndToEnd:
    def test_ping(self, client):
        assert client.ping() is True

    def test_qft16_twice_second_is_bit_identical_cache_hit(self, client):
        first = client.compile(benchmark="QFT", qubits=16)
        assert first["ok"], first
        assert first["artifact"]["depth"] >= 1
        assert first["artifact"]["num_fusions"] >= 1
        second = client.compile(benchmark="QFT", qubits=16)
        assert second["ok"]
        assert second["cache_tier"] in ("memory", "disk")
        assert second["artifact"] == first["artifact"]
        assert second["key"] == first["key"]
        # the cached response is an order of magnitude faster
        assert second["seconds"] < first["seconds"]

    def test_two_connections_share_the_store(self, server):
        with CompileClient(server.host, server.port) as a:
            first = a.compile(benchmark="BV", qubits=10)
        with CompileClient(server.host, server.port) as b:
            second = b.compile(benchmark="BV", qubits=10)
        assert second["cache_tier"] in ("memory", "disk")
        assert second["artifact"] == first["artifact"]

    def test_stats_over_the_wire(self, client):
        client.compile(benchmark="BV", qubits=8)
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["store"]["lookups"] >= 1

    def test_invalid_request_keeps_connection_usable(self, client):
        response = client.compile(benchmark="WARP")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        # framing stayed healthy: the same connection still serves
        assert client.ping() is True

    def test_malformed_json_rejected_then_closed(self, server):
        sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        try:
            body = b"{broken json"
            sock.sendall(HEADER.pack(len(body)) + body)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-json"
            # the server hangs up after a framing-level violation
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_oversized_payload_rejected(self, tmp_path):
        handle = ServerThread(
            workers=1, cache_dir=tmp_path, max_payload=1024
        ).start()
        try:
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=10
            )
            try:
                send_frame(sock, {"op": "compile", "qasm": "x" * 10_000})
                response = recv_frame(sock)
                assert response["ok"] is False
                assert response["error"]["code"] == "too-large"
            finally:
                sock.close()
            # an in-cap request on a fresh connection still works
            with CompileClient(handle.host, handle.port) as c:
                assert c.ping() is True
        finally:
            handle.stop()

    def test_oversized_header_never_buffers(self, server):
        """A hostile length prefix is refused without reading a body."""
        sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        try:
            sock.sendall(HEADER.pack(2**31))  # 2 GiB declared, no body
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "too-large"
        finally:
            sock.close()

    def test_client_raises_when_server_closes_mid_request(self, tmp_path):
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        client = CompileClient(handle.host, handle.port, timeout=5)
        assert client.ping() is True  # the session is live ...
        handle.stop()                 # ... then the server goes away
        with pytest.raises((ServerClosedError, OSError)):
            client.request({"op": "ping"})
        client.close()


class TestGracefulShutdown:
    def test_inflight_jobs_complete_and_port_closes(self, tmp_path):
        handle = ServerThread(workers=2, cache_dir=tmp_path).start()
        responses = {}
        errors = []

        def compile_request(slot, qubits):
            try:
                with CompileClient(handle.host, handle.port) as c:
                    responses[slot] = c.compile(
                        benchmark="QFT", qubits=qubits
                    )
            except Exception as exc:
                errors.append(exc)

        # distinct circuits: every request is a real in-flight compile
        threads = [
            threading.Thread(target=compile_request, args=(slot, 13 + slot))
            for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the compiles reach the worker pool
        with CompileClient(handle.host, handle.port) as c:
            ack = c.shutdown()
        assert ack["ok"] is True and ack["draining"] is True

        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert errors == []
        # every in-flight job completed and delivered a real artifact
        assert sorted(responses) == [0, 1, 2]
        for slot, response in responses.items():
            assert response["ok"], response
            assert response["artifact"]["depth"] >= 1

        # the listener drains away: new connections are refused
        deadline = time.time() + 10
        refused = False
        while time.time() < deadline:
            try:
                probe = socket.create_connection(
                    (handle.host, handle.port), timeout=1
                )
                probe.close()
                time.sleep(0.05)
            except OSError:
                refused = True
                break
        assert refused, "port still accepting after shutdown drain"
        handle.stop()

    def test_server_thread_stop_is_idempotent(self, tmp_path):
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        handle.stop()
        handle.stop()  # second stop is a no-op, not an error

    def test_stop_raises_when_loop_outlives_timeout(self, tmp_path):
        """A stop that cannot finish in time is an error, not a silent
        return with the loop thread still running."""
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        real_stop = handle.server.stop

        async def slow_stop(drain=True):
            await asyncio.sleep(1.0)
            await real_stop(drain=drain)

        handle.server.stop = slow_stop
        with pytest.raises(RuntimeError, match="did not stop within 0.1 s"):
            handle.stop(timeout=0.1)
        # the slow stop still completes; then the loop thread exits
        handle._thread.join(30)
        assert not handle._thread.is_alive()
