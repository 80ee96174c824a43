"""Fixed-point taint propagation over the hypernode graph.

Taint starts at the builtin source nodes (msg.sender, msg.value) and flows
along every edge until nothing changes. Hypernode endpoints participate like
any other endpoint: a tainted hypernode means tainted data crossed into that
function through a call, and edges leaving the hypernode carry the taint
onward. Propagation only ever adds taint; nothing is removed, so the result
is the least fixed point regardless of edge visit order.

Propagation walks the successor adjacency that `HypernodeGraph.finalize`
builds once, over endpoint numbers, with an explicit work stack, so deeply
nested inputs cannot exhaust the interpreter stack. Endpoint objects are
touched only to hand back the result: the taint edges are the out-edges of
the tainted tails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import EXTERNAL_SINK, Edge, Endpoint, GraphId, HypernodeGraph, NodeId


@dataclass(frozen=True)
class TaintSubgraph:
    """Result of one propagation run.

    tainted: every endpoint (basic node or hypernode) reached from the
    sources, sources included. taint_edges: every edge whose tail is
    tainted; by fixed-point closure their heads are tainted too.
    """

    id: GraphId
    tainted: frozenset[Endpoint]
    taint_edges: frozenset[Edge]


def default_sources(h: HypernodeGraph) -> frozenset[NodeId]:
    """All builtin source nodes present in the graph, as the graph recorded
    them on registration."""
    return frozenset(h.sources)


def tpa(h: HypernodeGraph, sources: frozenset[NodeId] | set[NodeId]) -> TaintSubgraph:
    """Propagate taint from `sources` to a least fixed point.

    Source ids not present in the graph are ignored. Output sets depend only
    on the graph's node/edge sets, not on edge insertion order.
    """
    endpoints, heads, start = h.adjacency()
    tainted = {n for n in map(h.number, sources) if n is not None}
    stack = list(tainted)
    while stack:
        n = stack.pop()
        for head in heads[start[n] : start[n + 1]]:
            if head not in tainted:
                tainted.add(head)
                stack.append(head)

    return TaintSubgraph(
        id=h.root,
        tainted=frozenset(endpoints[n] for n in tainted),
        taint_edges=frozenset(
            (endpoints[a], endpoints[b]) for a in tainted for b in heads[start[a] : start[a + 1]]
        ),
    )


def tainted_state_vars(t: TaintSubgraph, h: HypernodeGraph) -> frozenset[NodeId]:
    """Tainted contract-level variable nodes, excluding the @external sink."""
    return frozenset(
        n
        for n in t.tainted
        if isinstance(n, NodeId) and len(n.path) == 2 and n.path[-1] != EXTERNAL_SINK
    )
