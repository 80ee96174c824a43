"""Nested data-flow graph over contracts, functions, and variables.

Structure: a root graph contains one hypernode graph per contract; each
contract graph contains its state-variable nodes, a synthetic @external sink
node, and one hypernode graph per function; each function graph contains the
function's local, parameter, and builtin nodes.

Identity is by path. NodeId(("C", "x")) is the state variable x declared by
contract C, shared by every function that touches it, derived contracts
included: `model.Names` resolves state variables and called functions along
each contract's C3 linearization, most-derived first, as Solidity does;
NodeId(("C", "f", "v")) is a local/parameter/builtin v inside C.f;
GraphId(("C", "f")) is the hypernode of function f. Edges connect any mix of
basic nodes and hypernodes except hypernode-to-hypernode, and each edge is
stored in the lowest graph that contains both endpoints, so sibling-function
flows through shared state naturally land in the contract graph and
cross-contract flows land at the root.

Edge construction per lowered statement:
  * use u, def d       ->  u -> d
  * call g(args..)     ->  arg -> hypernode(g) for each argument read, and
                           hypernode(g) -> d for each def of the statement
                           when the callee resolves inside the unit
  * unresolvable call  ->  arg -> @external (per-contract sink); recorded in
                           diagnostics when the callee name looked local
  * optional implicit flow: enclosing guard read -> d
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import NoSpan, UnknownGraph
from .model import ContractModel, Names, Scope, VarRef

EXTERNAL_SINK = "@external"


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of one basic (variable) node, as a path of name components."""

    path: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.path)


@dataclass(frozen=True, order=True)
class GraphId:
    """Identity of one graph (root, contract, or function hypernode)."""

    path: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.path) if self.path else "<root>"


Endpoint = Union[NodeId, GraphId]
Edge = tuple[Endpoint, Endpoint]

ROOT = GraphId(())


def endpoint_key(ep: Endpoint) -> tuple:
    """Total order over mixed endpoints: by path, nodes before graphs."""
    return (ep.path, 1 if isinstance(ep, GraphId) else 0)


def edge_key(edge: Edge) -> tuple:
    return (endpoint_key(edge[0]), endpoint_key(edge[1]))


def parent_graph(ep: Endpoint) -> GraphId:
    return GraphId(ep.path[:-1])


class HypernodeGraph:
    """Mutable-until-finalized nested graph with deterministic ordering."""

    def __init__(self, source_text: str = ""):
        self.source_text = source_text
        self._members: dict[GraphId, dict[Endpoint, None]] = {ROOT: {}}
        self._edges: dict[GraphId, dict[Edge, None]] = {ROOT: {}}
        self.span_map: dict[Endpoint, tuple[int, int]] = {}
        self.diagnostics: list[str] = []

    # --- construction -----------------------------------------------------

    def add_graph(self, gid: GraphId, span: tuple[int, int] | None = None) -> GraphId:
        if gid in self._members:
            return gid
        parent = parent_graph(gid)
        if parent not in self._members:
            raise UnknownGraph(f"parent graph {parent} not registered for {gid}")
        self._members[parent][gid] = None
        self._members[gid] = {}
        self._edges[gid] = {}
        if span is not None:
            self.span_map[gid] = span
        return gid

    def add_node(self, nid: NodeId, span: tuple[int, int] | None = None) -> NodeId:
        parent = parent_graph(nid)
        if parent not in self._members:
            raise UnknownGraph(f"parent graph {parent} not registered for {nid}")
        self._members[parent][nid] = None
        if span is not None and nid not in self.span_map:
            self.span_map[nid] = span
        return nid

    def add_edge(self, a: Endpoint, b: Endpoint) -> None:
        for ep in (a, b):
            if not self.has(ep):
                raise UnknownGraph(f"edge endpoint {ep} not registered")
        if isinstance(a, GraphId) and isinstance(b, GraphId):
            raise ValueError("hypernode-to-hypernode edges are not allowed")
        pa, pb = parent_graph(a).path, parent_graph(b).path
        common = 0
        for x, y in zip(pa, pb):
            if x != y:
                break
            common += 1
        self._edges[GraphId(pa[:common])][(a, b)] = None

    def finalize(self) -> "HypernodeGraph":
        """Sort members and edges for order-independent, repeatable output."""
        self._members = {
            g: dict.fromkeys(sorted(members, key=endpoint_key))
            for g, members in self._members.items()
        }
        self._edges = {
            g: dict.fromkeys(sorted(edges, key=edge_key))
            for g, edges in self._edges.items()
        }
        return self

    # --- queries ------------------------------------------------------------

    @property
    def root(self) -> GraphId:
        return ROOT

    def has(self, ep: Endpoint) -> bool:
        if isinstance(ep, GraphId):
            return ep in self._members
        return ep in self._members.get(parent_graph(ep), {})

    def graphs(self) -> tuple[GraphId, ...]:
        return tuple(sorted(self._members, key=endpoint_key))

    def members(self, gid: GraphId) -> tuple[Endpoint, ...]:
        if gid not in self._members:
            raise UnknownGraph(f"no graph {gid}")
        return tuple(self._members[gid])

    def edges(self, gid: GraphId) -> tuple[Edge, ...]:
        if gid not in self._edges:
            raise UnknownGraph(f"no graph {gid}")
        return tuple(self._edges[gid])

    def graph_of(self, gid: GraphId) -> tuple[GraphId, frozenset[Endpoint], frozenset[Edge]]:
        """(id, members, edges) of one graph; raises UnknownGraph."""
        return (gid, frozenset(self.members(gid)), frozenset(self.edges(gid)))

    def all_edges(self) -> tuple[Edge, ...]:
        out: list[Edge] = []
        for gid in sorted(self._edges, key=endpoint_key):
            out.extend(self._edges[gid])
        return tuple(out)

    def nodes(self) -> tuple[NodeId, ...]:
        out = [
            ep
            for members in self._members.values()
            for ep in members
            if isinstance(ep, NodeId)
        ]
        return tuple(sorted(out, key=endpoint_key))

    def endpoints(self) -> frozenset[Endpoint]:
        eps: set[Endpoint] = set()
        for gid, members in self._members.items():
            if gid != ROOT:
                eps.add(gid)
            eps.update(members)
        return frozenset(eps)

    def source_slice(self, ep: Endpoint) -> str:
        """Exact source text of an element's recorded span."""
        span = self.span_map.get(ep)
        if span is None:
            raise NoSpan(f"no source span recorded for {ep}")
        off, length = span
        return self.source_text[off : off + length]


def function_node_id(names: Names, contract: str, function: str, ref: VarRef) -> NodeId:
    """The canonical node identity a variable reference resolves to."""
    if ref.scope == Scope.STATE:
        owner, _ = names.state(contract, ref.name) or (contract, None)
        return NodeId((owner, ref.name))
    return NodeId((contract, function, ref.name))


def build(
    models: Iterable[ContractModel],
    source_text: str = "",
    *,
    implicit_flow: bool = False,
) -> HypernodeGraph:
    """Assemble the hypernode graph for one unit's contract models.

    Deterministic: node and edge sets depend only on the models, never on
    dict iteration order or statement shuffling, because membership and
    edges are sorted at finalize time and identities are path-based.
    """
    models = list(models)
    names = Names(models)
    h = HypernodeGraph(source_text)

    # Registration pass: graphs first, then nodes, so every edge target
    # (including forward references to later functions) already exists.
    for m in models:
        h.add_graph(GraphId((m.name,)), span=m.source_span)
    for m in models:
        for f in m.functions:
            h.add_graph(GraphId((m.name, f.name)), span=f.source_span)

    def state_node(contract: str, ref: VarRef) -> NodeId:
        owner, decl = names.state(contract, ref.name) or (contract, None)
        return h.add_node(NodeId((owner, ref.name)), span=decl.source_span if decl else None)

    def external_node(contract: str) -> NodeId:
        return h.add_node(NodeId((contract, EXTERNAL_SINK)))

    # Node + edge pass.
    for m in models:
        for f in m.functions:
            decl_spans = {d.name: d.source_span for d in f.params}
            decl_spans.update({d.name: d.source_span for d in f.locals})

            def node_of(ref: VarRef, m=m, f=f, decl_spans=decl_spans) -> NodeId:
                if ref.scope == Scope.STATE:
                    return state_node(m.name, ref)
                nid = NodeId((m.name, f.name, ref.name))
                return h.add_node(nid, span=decl_spans.get(ref.name))

            for stmt in f.statements:
                # Every referenced variable becomes a node even when the
                # statement has no defs (guards, returns, bare sends), so
                # source reads stay visible to taint propagation.
                for ref in sorted(stmt.defs | stmt.uses):
                    node_of(ref)
                for u in sorted(stmt.uses):
                    for d in sorted(stmt.defs):
                        h.add_edge(node_of(u), node_of(d))
                if implicit_flow:
                    for g in sorted(stmt.guard_uses):
                        for d in sorted(stmt.defs):
                            h.add_edge(node_of(g), node_of(d))
                for site in stmt.calls:
                    target: Endpoint
                    if site.external:
                        target = external_node(m.name)
                    else:
                        owner = names.function(m.name, site.name)
                        if owner is None:
                            target = external_node(m.name)
                            h.diagnostics.append(
                                f"unresolved callee {site.name!r} in {m.name}.{f.name}"
                            )
                        else:
                            target = GraphId((owner, site.name))
                    for u in sorted(site.arg_reads):
                        h.add_edge(node_of(u), target)
                    if isinstance(target, GraphId):
                        for d in sorted(stmt.defs):
                            h.add_edge(target, node_of(d))
    return h.finalize()
