"""Fixed-point taint propagation over the hypernode graph.

Taint starts at the builtin source nodes (msg.sender, msg.value) and flows
along every edge until nothing changes. Hypernode endpoints participate like
any other endpoint: a tainted hypernode means tainted data crossed into that
function through a call, and edges leaving the hypernode carry the taint
onward. Propagation only ever adds taint; nothing is removed, so the result
is the least fixed point regardless of edge visit order.

Propagation walks the successor adjacency that `HypernodeGraph.finalize`
builds once, over registry numbers, with an explicit work stack, so deeply
nested inputs cannot exhaust the interpreter stack. The result is the set of
tainted numbers and the adjacency it was walked on; slicing and rendering
read those. The endpoint objects (`tainted`) and the edges between them
(`taint_edges`) are built only when something reads them: the CLI, tests,
the benchmark's checks.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator

from .hypergraph import EXTERNAL_SINK, Edge, Endpoint, GraphId, HypernodeGraph, NodeId


class TaintSubgraph:
    """Result of one propagation run.

    tainted: every endpoint (basic node or hypernode) reached from the
    sources, sources included. taint_edges: every edge whose tail is
    tainted; by fixed-point closure their heads are tainted too.

    `tpa` records the tainted registry numbers and the adjacency it walked,
    and builds both sets from them on first read. A subgraph can also be
    made by hand from the two sets, `TaintSubgraph(id, tainted,
    taint_edges)`; its numbers are then looked up in the graph it is read
    against, where its endpoints must be registered.
    """

    __slots__ = ("id", "_tainted", "_taint_edges", "_walked")

    def __init__(
        self,
        id: GraphId,
        tainted: AbstractSet[Endpoint] | None = None,
        taint_edges: AbstractSet[Edge] | None = None,
        *,
        walked: tuple[tuple[Endpoint, ...], AbstractSet[int], list[int], list[int]] | None = None,
    ):
        self.id = id
        self._tainted = None if tainted is None else frozenset(tainted)
        self._taint_edges = None if taint_edges is None else frozenset(taint_edges)
        # (endpoints, tainted numbers, heads, start), as `tpa` walked them.
        self._walked = walked

    def _edge_numbers(self) -> Iterator[tuple[int, int]]:
        _eps, numbers, heads, start = self._walked
        return ((a, b) for a in numbers for b in heads[start[a] : start[a + 1]])

    @property
    def tainted(self) -> frozenset[Endpoint]:
        if self._tainted is None:
            eps = self._walked[0]
            self._tainted = frozenset(map(eps.__getitem__, self._walked[1]))
        return self._tainted

    @property
    def taint_edges(self) -> frozenset[Edge]:
        if self._taint_edges is None:
            eps = self._walked[0]
            self._taint_edges = frozenset((eps[a], eps[b]) for a, b in self._edge_numbers())
        return self._taint_edges

    def tainted_numbers(self, h: HypernodeGraph) -> AbstractSet[int]:
        """The tainted endpoints as registry numbers of `h`."""
        if self._walked is not None:
            return self._walked[1]
        return set(map(h.number, self.tainted))

    def taint_edge_numbers(self, h: HypernodeGraph) -> Iterator[tuple[int, int]]:
        """The taint edges as (tail, head) registry numbers of `h`."""
        if self._walked is not None:
            return self._edge_numbers()
        return ((h.number(a), h.number(b)) for a, b in self.taint_edges)

    def _value(self) -> tuple:
        return self.id, self.tainted, self.taint_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaintSubgraph):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        counts = f"tainted={len(self.tainted)}, taint_edges={len(self.taint_edges)}"
        return f"TaintSubgraph(id={self.id!r}, {counts})"


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
    return TaintSubgraph(h.root, walked=(view.endpoints, tainted, heads, start))


def tainted_state_vars(t: TaintSubgraph, h: HypernodeGraph) -> frozenset[NodeId]:
    """Tainted contract-level variable nodes, excluding the @external sink."""
    return frozenset(
        n
        for n in t.tainted
        if isinstance(n, NodeId) and len(n.path) == 2 and n.path[-1] != EXTERNAL_SINK
    )
