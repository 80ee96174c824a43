"""Fixed-point taint propagation over the hypernode graph.

Taint starts at the builtin source nodes (msg.sender, msg.value) and flows
along every edge until nothing changes. Hypernode endpoints participate like
any other endpoint: a tainted hypernode means tainted data crossed into that
function through a call, and edges leaving the hypernode carry the taint
onward. Propagation only ever adds taint; nothing is removed, so the result
is the least fixed point regardless of edge visit order.

Propagation walks the successor adjacency that `HypernodeGraph.finalize`
builds once, over registry numbers, with an explicit work stack, so deeply
nested inputs cannot exhaust the interpreter stack. The result is exactly
what was walked: the tainted numbers and the view they were walked on.
Slicing and rendering read the numbers; the endpoint sets are built from
them on each read.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator

from .hypergraph import EXTERNAL_SINK, Edge, Endpoint, GraphId, HypernodeGraph, NodeId, View


class TaintSubgraph:
    """Result of one propagation run: the registry numbers of every endpoint
    (basic node or hypernode) reached from the sources, sources included,
    and the graph's view they were walked on. A later mutation of the graph
    makes a new view, so a result keeps describing the graph it was taken
    from.

    `tainted` and `taint_edges` are those endpoints, and every edge whose
    tail is tainted (by fixed-point closure its head is tainted too), built
    from the numbers on each read.
    """

    __slots__ = ("id", "numbers", "_view")

    def __init__(self, id: GraphId, numbers: AbstractSet[int], view: View):
        self.id = id
        self.numbers = numbers
        self._view = view

    def edge_numbers(self) -> Iterator[tuple[int, int]]:
        """The taint edges as (tail, head) registry numbers."""
        heads, start = self._view.succ
        return ((a, b) for a in self.numbers for b in heads[start[a] : start[a + 1]])

    @property
    def tainted(self) -> frozenset[Endpoint]:
        return frozenset(map(self._view.endpoints.__getitem__, self.numbers))

    @property
    def taint_edges(self) -> frozenset[Edge]:
        eps = self._view.endpoints
        return frozenset((eps[a], eps[b]) for a, b in self.edge_numbers())

    def _value(self) -> tuple:
        return self.id, self.tainted, self.taint_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaintSubgraph):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        edges = sum(1 for _ in self.edge_numbers())
        return f"TaintSubgraph(id={self.id!r}, tainted={len(self.numbers)}, taint_edges={edges})"


def default_sources(h: HypernodeGraph) -> frozenset[NodeId]:
    """All builtin source nodes present in the graph, as the graph recorded
    them on registration."""
    return frozenset(h.sources)


def tpa(h: HypernodeGraph, sources: frozenset[NodeId] | set[NodeId]) -> TaintSubgraph:
    """Propagate taint from `sources` to a least fixed point.

    Source ids not present in the graph are ignored. Output sets depend only
    on the graph's node/edge sets, not on edge insertion order.
    """
    view = h.view()
    heads, start = view.succ
    tainted = {n for n in map(h.number, sources) if n is not None}
    stack = list(tainted)
    while stack:
        n = stack.pop()
        for head in heads[start[n] : start[n + 1]]:
            if head not in tainted:
                tainted.add(head)
                stack.append(head)
    return TaintSubgraph(h.root, tainted, view)


def tainted_state_vars(t: TaintSubgraph, h: HypernodeGraph) -> frozenset[NodeId]:
    """Tainted contract-level variable nodes, excluding the @external sink."""
    return frozenset(
        n
        for n in t.tainted
        if isinstance(n, NodeId) and len(n.path) == 2 and n.path[-1] != EXTERNAL_SINK
    )
