"""Detection guarantees for the concurrency linter.

Mirrors the mutation harness's pinned-expected-codes pattern
(`tests/analysis/test_mutation.py` over `analysis/mutate.py`): a table
of minimal bad snippets — at least one per CC rule family — each pinned
to the exact codes it must trigger, and a clean twin for each family
that must produce no findings.  A detector that silently stops firing
(or starts over-firing on the idiomatic version) fails here, not in
production triage.
"""

import pathlib
import textwrap
from typing import Dict, FrozenSet, Tuple

import pytest

from repro.analysis.concurrency import (
    CC_CODES,
    ConcurrencyAnalyzer,
    analyze_source,
)

# ----------------------------------------------------------------------
# the fixture table: name -> (bad snippet, pinned expected codes)
# ----------------------------------------------------------------------
BAD_SNIPPETS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "cc101-unguarded-attr-write": (
        """
        import threading
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0
            def set_guarded(self, v):
                with self._lock:
                    self.value = v
            def set_raw(self, v):
                self.value = v
        """,
        frozenset({"CC101"}),
    ),
    "cc101-unguarded-local-mutation": (
        """
        import threading
        def tally():
            lock = threading.Lock()
            counts = {}
            def worker(key):
                with lock:
                    counts[key] = counts.get(key, 0) + 1
            counts["stray"] = 1
        """,
        frozenset({"CC101"}),
    ),
    "cc102-unguarded-attr-read": (
        """
        import threading
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.items = []
            def add(self, v):
                with self._lock:
                    self.items.append(v)
            def peek(self):
                return self.items
        """,
        frozenset({"CC102"}),
    ),
    "cc201-blocking-sleep-in-async": (
        """
        import time
        async def handler():
            time.sleep(0.5)
        """,
        frozenset({"CC201"}),
    ),
    "cc201-sync-file-io-in-async": (
        """
        import json
        async def read_config(path):
            return json.loads(path.read_text())
        """,
        frozenset({"CC201"}),
    ),
    "cc201-subprocess-in-async": (
        """
        import subprocess
        async def run():
            subprocess.run(["true"])
        """,
        frozenset({"CC201"}),
    ),
    "cc202-future-result-in-async": (
        """
        async def collect(future):
            return future.result()
        """,
        frozenset({"CC202"}),
    ),
    "cc203-fire-and-forget-task": (
        """
        import asyncio
        async def work():
            return 1
        async def go():
            asyncio.create_task(work())
        """,
        frozenset({"CC203"}),
    ),
    "cc301-lock-order-cycle": (
        """
        import threading
        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
            def fwd(self):
                with self._a:
                    with self._b:
                        pass
            def rev(self):
                with self._b:
                    with self._a:
                        pass
        """,
        frozenset({"CC301"}),
    ),
    "cc401-leaked-executor": (
        """
        from concurrent.futures import ThreadPoolExecutor
        def fan_out(tasks):
            pool = ThreadPoolExecutor(max_workers=4)
            return [pool.submit(t) for t in tasks]
        """,
        frozenset({"CC401"}),
    ),
    "cc401-unreleased-self-socket": (
        """
        import socket
        class Client:
            def __init__(self, host, port):
                self._sock = socket.create_connection((host, port))
            def send(self, data):
                self._sock.sendall(data)
        """,
        frozenset({"CC401"}),
    ),
    "cc402-raw-json-dump": (
        """
        import json
        def persist(path, payload):
            with path.open("w") as handle:
                json.dump(payload, handle)
        """,
        frozenset({"CC402"}),
    ),
    "cc402-write-text-dumps": (
        """
        import json
        def persist(path, payload):
            path.write_text(json.dumps(payload, indent=1))
        """,
        frozenset({"CC402"}),
    ),
}

#: name -> clean twin: the same shape written with correct discipline
CLEAN_TWINS: Dict[str, str] = {
    "cc101-guarded-attr-write": """
        import threading
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0
            def set_guarded(self, v):
                with self._lock:
                    self.value = v
            def bump(self):
                with self._lock:
                    self.value += 1
        """,
    "cc101-post-join-aggregation": """
        import threading
        def tally(n):
            lock = threading.Lock()
            total = 0
            def worker():
                nonlocal total
                with lock:
                    total += 1
            threads = [threading.Thread(target=worker) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return total
        """,
    "cc102-guarded-attr-read": """
        import threading
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.items = []
            def add(self, v):
                with self._lock:
                    self.items.append(v)
            def peek(self):
                with self._lock:
                    return list(self.items)
        """,
    "cc201-offloaded-blocking-work": """
        import asyncio
        import time
        async def handler(loop):
            await asyncio.to_thread(time.sleep, 0.5)
            await loop.run_in_executor(None, time.sleep, 0.5)
        """,
    "cc202-awaited-future": """
        import asyncio
        async def collect(future):
            return await asyncio.wrap_future(future)
        """,
    "cc203-retained-task": """
        import asyncio
        async def work():
            return 1
        async def go():
            task = asyncio.create_task(work())
            return await task
        """,
    "cc301-consistent-order": """
        import threading
        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
            def fwd(self):
                with self._a:
                    with self._b:
                        pass
            def also_fwd(self):
                with self._a:
                    with self._b:
                        pass
        """,
    "cc401-with-managed-executor": """
        from concurrent.futures import ThreadPoolExecutor
        def fan_out(tasks):
            with ThreadPoolExecutor(max_workers=4) as pool:
                return [pool.submit(t).result() for t in tasks]
        """,
    "cc401-released-self-socket": """
        import socket
        class Client:
            def __init__(self, host, port):
                self._sock = socket.create_connection((host, port))
            def close(self):
                self._sock.close()
        """,
    "cc402-atomic-publish": """
        import json
        import os
        def persist(path, payload):
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload, indent=1))
            os.replace(tmp, path)
        """,
}


def _codes(source: str) -> FrozenSet[str]:
    findings = analyze_source(textwrap.dedent(source))
    return frozenset(f.code for f in findings)


class TestFixtureTable:
    def test_table_covers_every_rule_family(self):
        pinned = frozenset().union(*(c for _, c in BAD_SNIPPETS.values()))
        assert pinned == frozenset(CC_CODES) - {"CC000"} == frozenset(
            {"CC101", "CC102", "CC201", "CC202", "CC203",
             "CC301", "CC401", "CC402"}
        )
        assert len(BAD_SNIPPETS) >= 8

    @pytest.mark.parametrize("name", sorted(BAD_SNIPPETS))
    def test_bad_snippet_is_caught(self, name):
        source, expected = BAD_SNIPPETS[name]
        assert _codes(source) == expected

    @pytest.mark.parametrize("name", sorted(CLEAN_TWINS))
    def test_clean_twin_passes(self, name):
        assert _codes(CLEAN_TWINS[name]) == frozenset()


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        source, (code,) = BAD_SNIPPETS["cc402-write-text-dumps"][0], tuple(
            BAD_SNIPPETS["cc402-write-text-dumps"][1]
        )
        patched = textwrap.dedent(source).replace(
            "path.write_text(json.dumps(payload, indent=1))",
            f"path.write_text(json.dumps(payload, indent=1))  # noqa: {code}",
        )
        assert analyze_source(patched) == []

    def test_noqa_wrong_code_does_not_suppress(self):
        source = textwrap.dedent(BAD_SNIPPETS["cc402-write-text-dumps"][0])
        patched = source.replace(
            "path.write_text(json.dumps(payload, indent=1))",
            "path.write_text(json.dumps(payload, indent=1))  # noqa: CC101",
        )
        assert {f.code for f in analyze_source(patched)} == {"CC402"}

    def test_bare_noqa_suppresses_everything(self):
        source = textwrap.dedent(BAD_SNIPPETS["cc402-write-text-dumps"][0])
        patched = source.replace(
            "path.write_text(json.dumps(payload, indent=1))",
            "path.write_text(json.dumps(payload, indent=1))  # noqa",
        )
        assert analyze_source(patched) == []


class TestLockOrderGraph:
    def test_nested_with_yields_edge(self):
        analyzer = ConcurrencyAnalyzer()
        analyzer.add_source(textwrap.dedent(
            CLEAN_TWINS["cc301-consistent-order"]
        ))
        edges = analyzer.lock_order_edges()
        assert set(edges) == {("Pair._a", "Pair._b")}

    def test_call_edge_crosses_methods(self):
        analyzer = ConcurrencyAnalyzer()
        analyzer.add_source(textwrap.dedent("""
            import threading
            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._store = Store()
                def update(self):
                    with self._lock:
                        self._store.put(1)
            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                def put(self, v):
                    with self._lock:
                        pass
        """))
        assert ("Outer._lock", "Store._lock") in analyzer.lock_order_edges()

    def test_call_edge_cycle_is_reported(self):
        findings = analyze_source(textwrap.dedent("""
            import threading
            class A:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.peer = B()
                def poke(self):
                    with self._lock:
                        self.peer.poke()
            class B:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.peer = A()
                def poke(self):
                    with self._lock:
                        self.peer.poke()
        """))
        assert "CC301" in {f.code for f in findings}

    def test_exempt_methods_do_not_flag(self):
        # __init__ writes and *_locked helpers are the two sanctioned
        # ways to touch guarded state without holding the lock
        assert _codes("""
            import threading
            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                def set(self, v):
                    with self._lock:
                        self._set_locked(v)
                def _set_locked(self, v):
                    self.value = v
        """) == frozenset()


@pytest.fixture(scope="module")
def repo_analyzer():
    """One analyzer over all of ``src/repro`` (building it is the slow
    part), shared by the repo gates."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    assert src.is_dir()
    analyzer = ConcurrencyAnalyzer()
    analyzer.add_paths([src])
    return analyzer


class TestRepoGate:
    def test_repo_source_has_zero_findings(self, repo_analyzer):
        findings = repo_analyzer.analyze()
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_repo_static_lock_graph_is_acyclic(self, repo_analyzer):
        from repro.utils.sync import find_cycle

        assert find_cycle(repo_analyzer.lock_order_edges()) is None
