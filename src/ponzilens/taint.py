"""Fixed-point taint propagation over the hypernode graph.

Taint starts at the builtin source nodes (msg.sender, msg.value) and flows
along every edge until nothing changes. Hypernode endpoints participate like
any other endpoint: a tainted hypernode means tainted data crossed into that
function through a call, and edges leaving the hypernode carry the taint
onward. Propagation only ever adds taint; nothing is removed, so the result
is the least fixed point regardless of edge visit order.

Everything here is in registry numbers: `default_sources` gives the graph's
source numbers, `tpa` takes numbers, and `tainted_state_vars` gives numbers.
Propagation walks the successor adjacency that `HypernodeGraph.finalize`
builds once, with an explicit work stack, so deeply nested inputs cannot
exhaust the interpreter stack. The result is exactly what was walked: the
tainted numbers and the view they were walked on. Slicing and rendering read
the numbers; the endpoint sets, and the ids in them, are made from the
numbers on each read.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

from .hypergraph import EXTERNAL_SINK, Edge, Endpoint, HypernodeGraph, View


class TaintSubgraph:
    """Result of one propagation run: the registry numbers of every endpoint
    (basic node or hypernode) reached from the sources, sources included,
    and the graph's view they were walked on. A later mutation of the graph
    makes a new view, so a result keeps describing the graph it was taken
    from.

    `tainted` and `taint_edges` are those endpoints, and every edge whose
    tail is tainted (by fixed-point closure its head is tainted too), made
    from the numbers on each read. A result is a plain record, equal only
    to itself: compare two by those sets.
    """

    __slots__ = ("numbers", "_view")

    def __init__(self, numbers: AbstractSet[int], view: View):
        self.numbers = numbers
        self._view = view

    def edge_numbers(self) -> Iterator[tuple[int, int]]:
        """The taint edges as (tail, head) registry numbers."""
        heads, start = self._view.succ
        return ((a, b) for a in self.numbers for b in heads[start[a] : start[a + 1]])

    @property
    def tainted(self) -> frozenset[Endpoint]:
        return frozenset(map(self._view.endpoint, self.numbers))

    @property
    def taint_edges(self) -> frozenset[Edge]:
        endpoint = self._view.endpoint
        return frozenset((endpoint(a), endpoint(b)) for a, b in self.edge_numbers())

    def __repr__(self) -> str:
        edges = sum(1 for _ in self.edge_numbers())
        return f"TaintSubgraph(tainted={len(self.numbers)}, taint_edges={edges})"


def default_sources(h: HypernodeGraph) -> frozenset[int]:
    """The numbers of the graph's builtin source nodes, as the graph recorded
    them on registration."""
    return frozenset(h.sources)


def tpa(h: HypernodeGraph, sources: Iterable[int]) -> TaintSubgraph:
    """Propagate taint from the `sources` numbers to a least fixed point.

    A number the graph never registered raises ValueError. Output sets
    depend only on the graph's node/edge sets, not on edge insertion order.
    """
    view = h.view()
    heads, start = view.succ
    tainted = set(sources)
    unknown = sorted(n for n in tainted if not 0 <= n < len(view.paths))
    if unknown:
        raise ValueError(f"sources not registered in the graph: {unknown}")
    stack = list(tainted)
    while stack:
        n = stack.pop()
        for head in heads[start[n] : start[n + 1]]:
            if head not in tainted:
                tainted.add(head)
                stack.append(head)
    return TaintSubgraph(tainted, view)


def tainted_state_vars(t: TaintSubgraph) -> frozenset[int]:
    """The numbers of the tainted contract-level variable nodes, excluding
    the @external sink."""
    paths, graph = t._view.paths, t._view.graph
    return frozenset(
        n for n in t.numbers if not graph[n] and len(paths[n]) == 2 and paths[n][-1] != EXTERNAL_SINK
    )
