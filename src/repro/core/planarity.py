"""Planarity utilities (paper Sec. 4 'Graph Planarization', Sec. 5).

Small resource states admit at most one routing path per coupling-graph
location, so only planar graphs can be laid out on a single physical
layer.  The compiler therefore (a) checks planarity when accumulating
dependency layers into partitions and (b) threads the planar embedding's
rotational edge order through fusion-graph generation.  It does not
decompose a dependency layer that is non-planar on its own: that layer
becomes a partition by itself, and its fusion graph is built with no
embedding order.  :func:`maximal_planar_subgraph` and
:func:`planar_edge_decomposition` are library utilities the compile
path does not call.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx


def is_planar(graph: nx.Graph) -> bool:
    """True when *graph* admits a planar embedding."""
    ok, _ = nx.check_planarity(graph, counterexample=False)
    return bool(ok)


class IncrementalPlanarityProber:
    """Windowed planarity probes over a growing induced subgraph.

    :func:`repro.core.partition.partition_pattern` repeatedly tests
    whether the induced subgraph on ``accepted nodes + a window of
    candidate layers`` is planar.  Rebuilding that subgraph from scratch
    costs O(partition + window) per probe; this prober keeps a
    persistent concrete graph of the accepted nodes and only pushes and
    pops the window, making each probe O(window + check).

    Only the planarity *verdict* is reused — embeddings are
    insertion-order-sensitive, so callers that need the rotational edge
    order still call :func:`planar_embedding_order` on a freshly built
    subgraph.
    """

    def __init__(self, source: nx.Graph) -> None:
        self._source = source
        self._graph: nx.Graph = nx.Graph()

    def reset(self) -> None:
        """Forget all accepted nodes (a partition closed)."""
        self._graph = nx.Graph()

    def _push(self, nodes: List[Hashable]) -> List[Hashable]:
        graph = self._graph
        source = self._source
        added: List[Hashable] = []
        for node in nodes:
            if graph.has_node(node):
                continue
            graph.add_node(node)
            added.append(node)
            for nbr in source.neighbors(node):
                if graph.has_node(nbr):
                    graph.add_edge(node, nbr)
        return added

    def extend(self, nodes: List[Hashable]) -> None:
        """Permanently accept *nodes* (a layer joined the partition)."""
        self._push(nodes)

    def probe(self, window_layers: List[List[Hashable]]) -> bool:
        """Is ``accepted + window`` planar as an induced subgraph?"""
        added: List[Hashable] = []
        for layer in window_layers:
            added.extend(self._push(layer))
        try:
            graph = self._graph
            v = graph.number_of_nodes()
            # Euler bound: a planar simple graph has at most 3V - 6 edges
            if v >= 3 and graph.number_of_edges() > 3 * v - 6:
                return False
            ok, _ = nx.check_planarity(graph, counterexample=False)
            return bool(ok)
        finally:
            self._graph.remove_nodes_from(added)


def planar_embedding_order(
    graph: nx.Graph,
) -> Optional[Dict[Hashable, List[Hashable]]]:
    """Clockwise neighbour order per node from a planar embedding.

    Returns ``None`` when the graph is non-planar.  The rotational order
    is what fusion-graph generation must preserve to keep the synthesized
    graph planar (Fig. 9d vs 9e).
    """
    ok, embedding = nx.check_planarity(graph, counterexample=False)
    if not ok:
        return None
    order: Dict[Hashable, List[Hashable]] = {}
    for node in graph.nodes():
        neighbors = list(graph.neighbors(node))
        if not neighbors:
            order[node] = []
            continue
        order[node] = list(embedding.neighbors_cw_order(node))
    return order


def maximal_planar_subgraph(
    graph: nx.Graph,
) -> Tuple[nx.Graph, List[Tuple[Hashable, Hashable]]]:
    """Greedy maximal planar edge-subgraph of *graph*.

    Returns ``(planar_subgraph, leftover_edges)`` where adding any
    leftover edge to the subgraph would break planarity (the paper's
    repeated decomposition for non-planar dependency layers).  Greedy
    insertion is the standard polynomial heuristic; exact maximum planar
    subgraph is NP-hard.
    """
    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes())
    leftover: List[Tuple[Hashable, Hashable]] = []
    # a spanning forest is always planar: seed with it for a good start
    forest_edges = set()
    for tree in nx.minimum_spanning_edges(graph, data=False):
        forest_edges.add(frozenset(tree))
        sub.add_edge(*tree)
    for u, v in graph.edges():
        if frozenset((u, v)) in forest_edges:
            continue
        sub.add_edge(u, v)
        if not is_planar(sub):
            sub.remove_edge(u, v)
            leftover.append((u, v))
    return sub, leftover


def planar_edge_decomposition(
    graph: nx.Graph,
) -> List[nx.Graph]:
    """Decompose *graph* into planar edge-subgraphs on the same nodes.

    Repeatedly strips a maximal planar subgraph until no edges remain
    (terminates because each round removes at least a spanning forest of
    the leftovers).
    """
    pieces: List[nx.Graph] = []
    remaining = graph.copy()
    while remaining.number_of_edges() > 0:
        planar, leftover = maximal_planar_subgraph(remaining)
        pieces.append(planar)
        remaining = nx.Graph()
        remaining.add_nodes_from(graph.nodes())
        remaining.add_edges_from(leftover)
    if not pieces:  # edgeless input
        pieces.append(graph.copy())
    return pieces
