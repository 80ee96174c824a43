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

`build` is the one place where a variable reference becomes a node: it binds
each reference of a function once and records, per function hypernode, the
set of nodes bound (`HypernodeGraph.refs`), next to the unit's name table
(`HypernodeGraph.names`). Slicing reads both instead of resolving again.

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
        # Set by `build`: the unit's name table, and per function hypernode
        # the nodes its statements' variable references were bound to.
        self.names: Names | None = None
        self.refs: dict[GraphId, frozenset[NodeId]] = {}

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

    def source_slice(self, ep: Endpoint) -> str:
        """Exact source text of an element's recorded span."""
        span = self.span_map.get(ep)
        if span is None:
            raise NoSpan(f"no source span recorded for {ep}")
        off, length = span
        return self.source_text[off : off + length]


def build(
    models: Iterable[ContractModel],
    source_text: str = "",
    *,
    implicit_flow: bool = False,
) -> HypernodeGraph:
    """Assemble the hypernode graph for one unit's contract models.

    Deterministic: node and edge sets depend only on the models, never on
    dict iteration order or statement shuffling, because membership and
    edges are sorted at finalize time, identities are path-based, and a
    node's span is a function of its identity.
    """
    models = list(models)
    h = HypernodeGraph(source_text)
    h.names = names = Names(models)

    # Registration pass: graphs first, then nodes, so every edge target
    # (including forward references to later functions) already exists.
    for m in models:
        h.add_graph(GraphId((m.name,)), span=m.source_span)
    for m in models:
        for f in m.functions:
            h.add_graph(GraphId((m.name, f.name)), span=f.source_span)

    def external_node(contract: str) -> NodeId:
        return h.add_node(NodeId((contract, EXTERNAL_SINK)))

    # Node + edge pass.
    for m in models:
        for f in m.functions:
            decl_spans = {d.name: d.source_span for d in f.params}
            decl_spans.update({d.name: d.source_span for d in f.locals})

            def node_of(ref: VarRef) -> NodeId:
                if ref.scope == Scope.STATE:
                    owner, decl = names.state(m.name, ref.name) or (m.name, None)
                    return h.add_node(
                        NodeId((owner, ref.name)), span=decl.source_span if decl else None
                    )
                nid = NodeId((m.name, f.name, ref.name))
                return h.add_node(nid, span=decl_spans.get(ref.name))

            # The one binding of each variable this function references.
            node: dict[VarRef, NodeId] = {}
            for stmt in f.statements:
                reads = stmt.uses | stmt.guard_uses if implicit_flow else stmt.uses
                # Every referenced variable becomes a node even when the
                # statement has no defs (guards, returns, bare sends), so
                # source reads stay visible to taint propagation.
                for ref in stmt.defs.union(reads, *(site.arg_reads for site in stmt.calls)):
                    if ref not in node:
                        node[ref] = node_of(ref)
                defs = [node[d] for d in stmt.defs]
                for u in reads:
                    for d in defs:
                        h.add_edge(node[u], d)
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
                    for u in site.arg_reads:
                        h.add_edge(node[u], target)
                    if isinstance(target, GraphId):
                        for d in defs:
                            h.add_edge(target, d)
            # Overloads share one hypernode, so their references unite.
            gid = GraphId((m.name, f.name))
            h.refs[gid] = h.refs.get(gid, frozenset()).union(node.values())
    return h.finalize()
