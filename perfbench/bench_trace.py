"""Outside-in tracing: timed spans around the program's public calls.

The traced run swaps each public entry point that :func:`instrument`
names for a wrapper at the attribute where callers look it up, records one span per call (name, parent span, start, end) plus
counters taken from the call's result, and restores the originals when
it is done.  Spans stay in memory until :meth:`Tracer.dump`.  The
untraced runs never install a wrapper, so their timings carry no
tracing cost.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

CountFn = Callable[[Counter, Any], None]


class Tracer:
    """Nested wall-clock spans with counters, kept in memory."""

    def __init__(self) -> None:
        #: one ``[name, parent_index, start, end]`` per finished span
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str,
             count: Optional[CountFn] = None) -> None:
        """Replace ``owner.attr`` (a module function or a plain method)
        by a wrapper that records a *name* span around each call."""
        original = vars(owner)[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(tracer.counters, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds.

        Self time is a span's duration minus the time its direct
        children cover (spans nest strictly on one thread).
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, _parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path: str) -> None:
        """Write spans, per-name totals and counters as JSON."""
        payload = {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in self.spans
            ],
            "totals": self.totals(),
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


# ----------------------------------------------------------------------
# the program's layer boundaries
# ----------------------------------------------------------------------
def _count_map(counters: Counter, result: Any) -> None:
    counters["map.routing_fusions"] += result.routing_fusions
    counters["map.deferred_edges"] += len(result.deferred_edges)


def _count_shuffle(counters: Counter, result: Any) -> None:
    counters["shuffle.layers"] += result.num_layers
    counters["shuffle.fusions"] += result.fusions


def _count_mc_run(counters: Counter, result: Any) -> None:
    counters["mc.shots"] += result.shots
    counters["mc.executed"] += result.executed


def _count_frame(counters: Counter, result: Any) -> None:
    counters["frame.shots_executed"] += len(result)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics need."""
    import networkx

    import repro.core.compiler as compiler
    import repro.core.fusion_graph as fusion_graph
    import repro.core.mapping as mapping
    import repro.core.planarity as planarity
    import repro.mbqc.translate as translate
    import repro.sim.frame as frame
    import repro.sim.noisy as noisy

    tracer.wrap(translate, "circuit_to_pattern", "translate")
    tracer.wrap(compiler, "schedule_layers", "schedule")
    tracer.wrap(compiler, "partition_pattern", "partition")
    tracer.wrap(planarity.IncrementalPlanarityProber, "probe",
                "partition.probe")
    tracer.wrap(networkx, "check_planarity", "planarity.check")
    tracer.wrap(compiler, "build_fusion_graph", "fusion_graph")
    tracer.wrap(fusion_graph, "planar_embedding_order",
                "fusion_graph.embedding")
    tracer.wrap(mapping.InLayerMapper, "map_fusion_graph", "map",
                count=_count_map)
    tracer.wrap(compiler, "connect_pairs", "shuffle", count=_count_shuffle)
    tracer.wrap(noisy.NoisySampler, "__init__", "mc.sampler_init")
    tracer.wrap(noisy.NoisySampler, "run", "mc.run", count=_count_mc_run)
    tracer.wrap(frame.PauliFrameSimulator, "run_shots", "frame.run_shots",
                count=_count_frame)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (0 for a layer never called)."""
    totals = tracer.totals()
    counters = tracer.counters

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    shots = counters["mc.shots"]
    return {
        "translate.s": seconds("translate"),
        "schedule.s": seconds("schedule"),
        "partition.s": seconds("partition"),
        "partition.probes": calls("partition.probe"),
        "planarity.checks": calls("planarity.check"),
        "planarity.s": seconds("planarity.check"),
        "fusion_graph.s": seconds("fusion_graph"),
        "fusion_graph.embedding_s": seconds("fusion_graph.embedding"),
        "map.s": seconds("map"),
        "map.routing_fusions": counters["map.routing_fusions"],
        "map.deferred_edges": counters["map.deferred_edges"],
        "shuffle.s": seconds("shuffle"),
        "shuffle.layers": counters["shuffle.layers"],
        "shuffle.fusions": counters["shuffle.fusions"],
        "compile.unattributed_s": totals.get("compile", {}).get("self_s", 0.0),
        "validate.s": seconds("validate"),
        "verify.s": seconds("verify"),
        "baseline.s": seconds("baseline"),
        "mc.sampler_init_s": seconds("mc.sampler_init"),
        "mc.run_s": seconds("mc.run"),
        "mc.executed_shot_frac": counters["mc.executed"] / shots if shots else 0.0,
        "frame.run_shots_s": seconds("frame.run_shots"),
        "frame.shots_executed": counters["frame.shots_executed"],
    }
