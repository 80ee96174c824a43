"""Nested data-flow graph over contracts, functions, and variables.

Structure: a root graph contains one hypernode graph per contract; each
contract graph contains its state-variable nodes, a synthetic @external sink
node, and one hypernode graph per function; each function graph contains the
function's local, parameter, and builtin nodes.

Identity is by path. NodeId(("C", "x")) is the state variable x declared by
contract C, shared by every function that touches it, derived contracts
included; NodeId(("C", "f", "v")) is a local/parameter/builtin v inside C.f;
GraphId(("C", "f")) is the hypernode of function f. Edges connect any mix of
basic nodes and hypernodes except hypernode-to-hypernode, and each edge is
stored in the lowest graph that contains both endpoints, so sibling-function
flows through shared state naturally land in the contract graph and
cross-contract flows land at the root.

One object per path. A graph keeps a registry from path to endpoint: each
endpoint is registered once, numbered in registration order, and every
later `add_graph`/`add_node`/`add_edge` with an equal id resolves to the
registered object, so `members`, `edges`, `refs` and a taint result hand
out the same object for the same path. Ids are slotted and immutable, and
compute their hash and `endpoint_key` once. Internally an edge is a pair of
registry numbers packed into one int, so the bulk of a graph is ints, which
the garbage collector does not track.

`finalize` sorts members and edges by `endpoint_key` and builds the
successor adjacency over numbers once; queries and `taint.tpa` read that
view. A mutation after `finalize` drops the view, and the next read builds
it again, so it never goes stale.

`build` resolves nothing: `model.lower` bound every name, along each
contract's C3 linearization as Solidity does, and recorded the node path of
each entry of a function's declaration table and the contract declaring each
call's target. `build` makes one node per table entry and takes the edges
from the statements' indices. It records, per function hypernode, the set of
nodes the function references (`HypernodeGraph.refs`), which slicing reads.
A graph also records its source nodes (`HypernodeGraph.sources`: those named
msg.sender or msg.value) as they are registered.

Edge construction per lowered statement:
  * use u, def d       ->  u -> d
  * call g(args..)     ->  arg -> hypernode(g) for each argument read, and
                           hypernode(g) -> d for each def of the statement
                           when the callee resolves inside the unit
  * unresolvable call  ->  arg -> @external (per-contract sink); recorded in
                           diagnostics when the callee name looked local

Flows are explicit only: a branch or loop condition is a statement of its
own, and does not flow into the writes it guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Union

from .errors import NoSpan, UnknownGraph
from .model import BUILTIN_NAMES, ContractModel

EXTERNAL_SINK = "@external"


class _Keyed:
    """What NodeId and GraphId share: the endpoint key and the hash are
    computed once, at construction, because ids are hashed and sorted far
    more often than they are made."""

    __slots__ = ()
    _KIND = 0  # the key's second component: nodes sort before graphs

    def __post_init__(self) -> None:
        key = (self.path, self._KIND)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __reduce__(self):
        # Rebuild from the path: a string's hash differs between processes.
        return type(self), (self.path,)


@dataclass(frozen=True, order=True, slots=True)
class NodeId(_Keyed):
    """Identity of one basic (variable) node, as a path of name components."""

    path: tuple[str, ...]
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return ".".join(self.path)


@dataclass(frozen=True, order=True, slots=True)
class GraphId(_Keyed):
    """Identity of one graph (root, contract, or function hypernode)."""

    path: tuple[str, ...]
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _KIND = 1

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return ".".join(self.path) if self.path else "<root>"


Endpoint = Union[NodeId, GraphId]
Edge = tuple[Endpoint, Endpoint]

ROOT = GraphId(())


def endpoint_key(ep: Endpoint) -> tuple:
    """Total order over mixed endpoints: by path, nodes before graphs."""
    return ep._key


# An edge is stored as one int, tail number << _SHIFT | head number: ints
# are not tracked by the garbage collector, and a graph has far fewer than
# 2**_SHIFT endpoints.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


def _grouped(
    items: list[int], group: Callable[[int], int], size: int
) -> tuple[list[int], list[int]]:
    """`items` ordered by group number (stably, so each group keeps the
    input order), and the offsets: group g is flat[start[g]:start[g + 1]]."""
    counts = [0] * (size + 1)
    for item in items:
        counts[group(item) + 1] += 1
    return sorted(items, key=group), list(accumulate(counts))


class _View(NamedTuple):
    """The sorted form of a graph that `finalize` derives from the registry;
    queries and propagation read it. Everything is a flat list of ints."""

    endpoints: tuple[Endpoint, ...]  # number -> endpoint
    order: list[int]  # every number, in endpoint_key order
    members: tuple[list[int], list[int]]  # by parent graph number, sorted
    edges: tuple[list[int], list[int]]  # by storing graph number, sorted
    succ: tuple[list[int], list[int]]  # head numbers, by tail number


class HypernodeGraph:
    """Nested graph with one object per endpoint and deterministic ordering.

    `add_graph` and `add_node` return the registered object for the id's
    path; reads are sorted, from the view `finalize` builds (see the module
    docstring).
    """

    def __init__(self, source_text: str = ""):
        self.source_text = source_text
        self.span_map: dict[Endpoint, tuple[int, int]] = {}
        self.diagnostics: list[str] = []
        # Set by `build`: per function hypernode, the nodes its statements
        # reference.
        self.refs: dict[GraphId, frozenset[NodeId]] = {}
        # Every registered node whose last path component is a source name.
        self.sources: set[NodeId] = set()
        # The registry: endpoints and their parent graphs by number, and
        # numbers by path, one table per kind. An edge maps to the number of
        # the graph that stores it.
        self._endpoints: list[Endpoint] = [ROOT]
        self._parent: list[int] = [-1]
        self._graph_no: dict[tuple[str, ...], int] = {(): 0}
        self._node_no: dict[tuple[str, ...], int] = {}
        self._edge_owner: dict[int, int] = {}
        self._view: _View | None = None

    # --- construction -----------------------------------------------------

    def _add(
        self, ep: Endpoint, table: dict[tuple[str, ...], int], span: tuple[int, int] | None
    ) -> Endpoint:
        n = table.get(ep.path)
        if n is None:
            parent = self._graph_no.get(ep.path[:-1])
            if parent is None:
                raise UnknownGraph(f"parent graph {GraphId(ep.path[:-1])} not registered for {ep}")
            table[ep.path] = len(self._endpoints)
            self._endpoints.append(ep)
            self._parent.append(parent)
            self._view = None
        else:
            ep = self._endpoints[n]
        if span is not None:
            self.span_map.setdefault(ep, span)
        return ep

    def add_graph(self, gid: GraphId, span: tuple[int, int] | None = None) -> GraphId:
        """Register a graph once and return the registered id; the first
        span recorded is kept."""
        return self._add(gid, self._graph_no, span)

    def add_node(self, nid: NodeId, span: tuple[int, int] | None = None) -> NodeId:
        """Register a basic node once and return the registered id; the first
        span recorded is kept."""
        nid = self._add(nid, self._node_no, span)
        if nid.path and nid.path[-1] in BUILTIN_NAMES:
            self.sources.add(nid)
        return nid

    def add_edge(self, a: Endpoint, b: Endpoint) -> None:
        na, nb = self.number(a), self.number(b)
        if na is None or nb is None:
            raise UnknownGraph(f"edge endpoint {a if na is None else b} not registered")
        if isinstance(a, GraphId) and isinstance(b, GraphId):
            raise ValueError("hypernode-to-hypernode edges are not allowed")
        edge = na << _SHIFT | nb
        if edge in self._edge_owner:
            return
        owner = self._parent[na]
        if owner != self._parent[nb]:
            # The lowest graph containing both: the parents' common prefix.
            pa, pb = a.path[:-1], b.path[:-1]
            common = 0
            for x, y in zip(pa, pb):
                if x != y:
                    break
                common += 1
            owner = self._graph_no[pa[:common]]
        self._edge_owner[edge] = owner
        self._view = None

    def finalize(self) -> "HypernodeGraph":
        """Sort members and edges, and build the successor adjacency."""
        endpoints = tuple(self._endpoints)
        size = len(endpoints)
        keys = [ep._key for ep in endpoints]
        order = sorted(range(size), key=keys.__getitem__)
        rank = [0] * size
        for r, n in enumerate(order):
            rank[n] = r
        edges = sorted(self._edge_owner, key=lambda e: rank[e >> _SHIFT] * size + rank[e & _LOW])
        by_tail, start = _grouped(edges, lambda e: e >> _SHIFT, size)
        self._view = _View(
            endpoints,
            order,
            _grouped([n for n in order if n], self._parent.__getitem__, size),  # 0 is the root
            _grouped(edges, self._edge_owner.__getitem__, size),
            ([e & _LOW for e in by_tail], start),
        )
        return self

    # --- queries ------------------------------------------------------------

    def _read(self) -> _View:
        if self._view is None:
            self.finalize()
        return self._view

    @property
    def root(self) -> GraphId:
        return ROOT

    def number(self, ep: Endpoint) -> int | None:
        """The registry number of an endpoint, or None when unregistered."""
        return (self._graph_no if isinstance(ep, GraphId) else self._node_no).get(ep.path)

    def _slice(self, gid: GraphId, grouped: tuple[list[int], list[int]]) -> list[int]:
        n = self._graph_no.get(gid.path) if isinstance(gid, GraphId) else None
        if n is None:
            raise UnknownGraph(f"no graph {gid}")
        flat, start = grouped
        return flat[start[n] : start[n + 1]]

    def graphs(self) -> tuple[GraphId, ...]:
        view = self._read()
        ordered = map(view.endpoints.__getitem__, view.order)
        return tuple(ep for ep in ordered if isinstance(ep, GraphId))

    def members(self, gid: GraphId) -> tuple[Endpoint, ...]:
        view = self._read()
        return tuple(view.endpoints[n] for n in self._slice(gid, view.members))

    def edges(self, gid: GraphId) -> tuple[Edge, ...]:
        view = self._read()
        eps = view.endpoints
        return tuple((eps[e >> _SHIFT], eps[e & _LOW]) for e in self._slice(gid, view.edges))

    def all_edges(self) -> tuple[Edge, ...]:
        return tuple(edge for gid in self.graphs() for edge in self.edges(gid))

    def nodes(self) -> tuple[NodeId, ...]:
        view = self._read()
        ordered = map(view.endpoints.__getitem__, view.order)
        return tuple(ep for ep in ordered if isinstance(ep, NodeId))

    def adjacency(self) -> tuple[tuple[Endpoint, ...], list[int], list[int]]:
        """(endpoints, heads, start): the successor adjacency over registry
        numbers that `finalize` built. endpoints[n] is the endpoint numbered
        n (see `number`); the heads of its out-edges are the numbers
        heads[start[n]:start[n + 1]]."""
        view = self._read()
        heads, start = view.succ
        return view.endpoints, heads, start

    def source_slice(self, ep: Endpoint) -> str:
        """Exact source text of an element's recorded span."""
        span = self.span_map.get(ep)
        if span is None:
            raise NoSpan(f"no source span recorded for {ep}")
        off, length = span
        return self.source_text[off : off + length]


def build(models: Iterable[ContractModel], source_text: str = "") -> HypernodeGraph:
    """Assemble the hypernode graph for one unit's contract models.

    Deterministic: node and edge sets depend only on the models, never on
    dict iteration order or statement shuffling, because membership and
    edges are sorted at finalize time, identities are path-based, and a
    node's span is a function of its identity. Hypernodes and the external
    sink are looked up, not made again, by every function that touches
    them; a state node made again by another function resolves to the
    registered one.
    """
    models = list(models)
    h = HypernodeGraph(source_text)

    # Registration pass: graphs first, then nodes, so every edge target
    # (including forward references to later functions) already exists.
    # Overloads share one hypernode.
    hypernode: dict[tuple[str, str], GraphId] = {}
    for m in models:
        h.add_graph(GraphId((m.name,)), span=m.source_span)
    for m in models:
        for f in m.functions:
            path = (m.name, f.name)
            if path not in hypernode:
                hypernode[path] = h.add_graph(GraphId(path), span=f.source_span)

    # Node + edge pass. Every entry of a function's table is referenced by
    # some statement, so it becomes a node even when no statement defines
    # anything (guards, returns, bare sends): source reads stay visible to
    # taint propagation.
    for m in models:
        sink = NodeId((m.name, EXTERNAL_SINK))  # registered on first use
        for f in m.functions:
            node = [h.add_node(NodeId(d.path), span=d.source_span) for d in f.decls]
            for stmt in f.statements:
                defs = [node[d] for d in stmt.defs]
                for u in stmt.uses:
                    for d in defs:
                        h.add_edge(node[u], d)
                for site in stmt.calls:
                    target: Endpoint
                    if site.owner is not None:
                        target = hypernode[site.owner, site.name]
                    else:
                        target = h.add_node(sink)
                        if not site.external:
                            h.diagnostics.append(
                                f"unresolved callee {site.name!r} in {m.name}.{f.name}"
                            )
                    for u in site.arg_reads:
                        h.add_edge(node[u], target)
                    if site.owner is not None:
                        for d in defs:
                            h.add_edge(target, d)
            # Overloads share one hypernode, so their references unite.
            gid = hypernode[m.name, f.name]
            bound = h.refs.get(gid)
            h.refs[gid] = frozenset(node) if bound is None else bound.union(node)
    return h.finalize()
