"""Nested data-flow graph over contracts, functions, and variables.

The graph is topology only: endpoints, their nesting and the edges between
them. It keeps no source text and no spans; slicing reads those from the
models (`ContractModel`, `FunctionModel`) that `build` was given.

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
cross-contract flows land at the root. The graph records only the edge
itself; `edges` finds its storing graph when it first groups the edges.

A graph keeps a registry: each endpoint is registered once per path and
kind, numbered in registration order, and the registry keeps each number's
path and a one-byte kind flag (1 for a graph). The number is the only
identity inside the graph and the currency from `build` through `taint.tpa`
and slicing to `render.to_dot`; an edge is a pair of numbers packed into
one int, and the graph keeps the set of them. Neither a flag array nor
an int is tracked by the garbage collector. `NodeId` and `GraphId` are plain
values: `add_graph`/`add_node`/`add_edge` look theirs up by path, and the
queries make new ones on read (`View.endpoint`). `finalize` derives the
`View`: every number in `endpoint_key` order and its rank there, each
graph's members in that order, and the successor adjacency. A mutation
drops the view, and the next read builds a new one.

`build` resolves nothing: `model.lower` bound every name and recorded each
declaration's node path and each call's target contract. `build` makes one
node per table entry, takes the edges from the statements' indices, and
records per function the numbers of the nodes it references
(`function_refs`). A graph also records its source nodes (`sources`: those
named msg.sender or msg.value) as they are registered.

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

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, NamedTuple, Union

from .errors import UnknownGraph
from .model import BUILTIN_NAMES, ContractModel

EXTERNAL_SINK = "@external"


@dataclass(frozen=True, order=True, slots=True)
class NodeId:
    """Identity of one basic (variable) node, as a path of name components."""

    path: tuple[str, ...]
    _KIND = 0  # the endpoint key's second component: nodes sort before graphs

    def __str__(self) -> str:
        return ".".join(self.path)


@dataclass(frozen=True, order=True, slots=True)
class GraphId:
    """Identity of one graph (root, contract, or function hypernode)."""

    path: tuple[str, ...]
    _KIND = 1

    def __str__(self) -> str:
        return ".".join(self.path) if self.path else "<root>"


Endpoint = Union[NodeId, GraphId]
Edge = tuple[Endpoint, Endpoint]

ROOT = GraphId(())


def endpoint_key(ep: Endpoint) -> tuple:
    """Total order over mixed endpoints: by path, nodes before graphs."""
    return ep.path, ep._KIND


# An edge is stored as one int, tail number << _SHIFT | head number: ints
# are not tracked by the garbage collector, and a graph has far fewer than
# 2**_SHIFT endpoints.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


def _grouped(items: list[int], groups: list[int], size: int) -> tuple[list[int], list[int]]:
    """`items` placed by their group numbers `groups` (each group keeps the
    input order), and the offsets: group g is flat[start[g]:start[g + 1]]."""
    start = [0] * (size + 1)
    for g in groups:
        start[g + 1] += 1
    start = list(accumulate(start))
    flat = [0] * len(items)
    free = start[:-1]
    for item, g in zip(items, groups):
        flat[free[g]] = item
        free[g] += 1
    return flat, start


class View(NamedTuple):
    """The ordered form of a graph that `finalize` derives from the
    registry; queries, propagation, slicing and rendering read it. Apart
    from the paths and kind flags, everything is a flat list of registry
    numbers."""

    paths: tuple[tuple[str, ...], ...]  # number -> path
    graph: bytes  # number -> 1 for a graph, 0 for a node
    order: list[int]  # every number, in endpoint_key order
    rank: list[int]  # number -> its position in `order`
    members: tuple[list[int], list[int]]  # by parent graph number, in order
    succ: tuple[list[int], list[int]]  # head numbers, by tail number

    def endpoint(self, n: int) -> Endpoint:
        """A new id for the endpoint numbered `n`."""
        return (GraphId if self.graph[n] else NodeId)(self.paths[n])


class HypernodeGraph:
    """Nested graph over registry numbers, with deterministic ordering.

    `add_graph` and `add_node` register the id's path; reads are sorted,
    from the view `finalize` builds, and make their ids on read (see the
    module docstring).
    """

    def __init__(self) -> None:
        self.diagnostics: list[str] = []
        # The numbers of the registered nodes named msg.sender or msg.value.
        self.sources: set[int] = set()
        # The registry: paths, kind flags and parent graphs by number, and
        # numbers by path, one table per kind; and the edges.
        self._paths: list[tuple[str, ...]] = [ROOT.path]
        self._graph = bytearray(b"\x01")
        self._parent: list[int] = [-1]
        self._graph_no: dict[tuple[str, ...], int] = {(): 0}
        self._node_no: dict[tuple[str, ...], int] = {}
        self._edges: set[int] = set()
        self._view: View | None = None
        # Edges by storing graph number, in order; made on the first
        # `edges` read after each `finalize`.
        self._stored_edges: tuple[list[int], list[int]] | None = None
        # Set by `build`: per function hypernode number, the numbers of the
        # nodes its statements reference.
        self._fn_refs: dict[int, tuple[int, ...]] = {}

    # --- construction -----------------------------------------------------

    def _register(self, path: tuple[str, ...], kind: type[Endpoint]) -> int:
        """The number of the endpoint of `kind` at `path`, registering the
        path first when it is new."""
        graph = kind is GraphId
        table = self._graph_no if graph else self._node_no
        n = table.get(path)
        if n is None:
            parent = self._graph_no.get(path[:-1])
            if parent is None:
                raise UnknownGraph(
                    f"parent graph {GraphId(path[:-1])} not registered for {kind(path)}"
                )
            n = table[path] = len(self._paths)
            self._paths.append(path)
            self._graph.append(graph)
            self._parent.append(parent)
            self._view = None
            if not graph and path and path[-1] in BUILTIN_NAMES:
                self.sources.add(n)
        return n

    def add_graph(self, gid: GraphId) -> GraphId:
        """Register a graph once and return `gid`."""
        self._register(gid.path, GraphId)
        return gid

    def add_node(self, nid: NodeId) -> NodeId:
        """Register a basic node once and return `nid`."""
        self._register(nid.path, NodeId)
        return nid

    def add_edge(self, a: Endpoint, b: Endpoint) -> None:
        na, nb = self.number(a), self.number(b)
        if na is None or nb is None:
            raise UnknownGraph(f"edge endpoint {a if na is None else b} not registered")
        if isinstance(a, GraphId) and isinstance(b, GraphId):
            raise ValueError("hypernode-to-hypernode edges are not allowed")
        self._link(na, nb)

    def _link(self, a: int, b: int) -> None:
        """Add the edge between two registered numbers."""
        self._edges.add(a << _SHIFT | b)
        self._view = None

    def finalize(self) -> "HypernodeGraph":
        """Order endpoints and members, and build the successor adjacency.

        endpoint_key order is a pre-order walk of the nesting: a graph's
        members, ordered by their last path component with a node before a
        graph of the same name, each followed by its own members. That is
        the order of the path tuples, nodes before graphs on equal paths,
        without comparing whole paths.
        """
        paths = tuple(self._paths)
        size = len(paths)
        parent = self._parent
        name = [path[-1] if path else "" for path in paths]
        # Nodes before graphs into a stable sort by name, so a node precedes
        # the graph of the same path; 0 is the root, a member of nothing.
        kids = sorted(
            [*self._node_no.values(), *islice(self._graph_no.values(), 1, None)],
            key=name.__getitem__,
        )
        members = _grouped(kids, [parent[n] for n in kids], size)
        flat, start = members
        order: list[int] = []
        stack = [0]
        while stack:
            n = stack.pop()
            order.append(n)
            if start[n] != start[n + 1]:
                stack.extend(reversed(flat[start[n] : start[n + 1]]))
        rank = [0] * size
        for r, n in enumerate(order):
            rank[n] = r
        edges = list(self._edges)
        succ = _grouped([e & _LOW for e in edges], [e >> _SHIFT for e in edges], size)
        self._view = View(paths, bytes(self._graph), order, rank, members, succ)
        self._stored_edges = None
        return self

    # --- queries ------------------------------------------------------------

    def view(self) -> View:
        """The ordered view over registry numbers, built by `finalize` when
        the graph changed since."""
        if self._view is None:
            self.finalize()
        return self._view

    def number(self, ep: Endpoint) -> int | None:
        """The registry number of an endpoint, or None when unregistered."""
        return (self._graph_no if isinstance(ep, GraphId) else self._node_no).get(ep.path)

    def function_refs(self, contract: str, function: str) -> tuple[int, tuple[int, ...]]:
        """The number of a function's hypernode and the numbers of the nodes
        its statements reference (every overload's), as `build` recorded
        them."""
        g = self._graph_no[contract, function]
        return g, self._fn_refs.get(g, ())

    def _storing_graph(self, a: int, b: int) -> int:
        """The number of the lowest graph that contains both endpoints: the
        graph of their parents' longest common path prefix, since every
        prefix of a registered path is a registered graph."""
        parent = self._parent
        owner, other = parent[a], parent[b]
        if owner != other:
            above = []
            while owner >= 0:
                above.append(owner)
                owner = parent[owner]
            while other not in above:
                other = parent[other]
        return other

    def _slice(self, gid: GraphId, grouped: tuple[list[int], list[int]]) -> list[int]:
        n = self._graph_no.get(gid.path) if isinstance(gid, GraphId) else None
        if n is None:
            raise UnknownGraph(f"no graph {gid}")
        flat, start = grouped
        return flat[start[n] : start[n + 1]]

    def graphs(self) -> tuple[GraphId, ...]:
        view = self.view()
        return tuple(GraphId(view.paths[n]) for n in view.order if view.graph[n])

    def members(self, gid: GraphId) -> tuple[Endpoint, ...]:
        view = self.view()
        return tuple(map(view.endpoint, self._slice(gid, view.members)))

    def edges(self, gid: GraphId) -> tuple[Edge, ...]:
        view = self.view()
        if self._stored_edges is None:
            # By (tail, head) rank, then placed by storing graph.
            rank, order = view.rank, view.order
            ranked = sorted(rank[e >> _SHIFT] << _SHIFT | rank[e & _LOW] for e in self._edges)
            edges = [order[e >> _SHIFT] << _SHIFT | order[e & _LOW] for e in ranked]
            owner = [self._storing_graph(e >> _SHIFT, e & _LOW) for e in edges]
            self._stored_edges = _grouped(edges, owner, len(order))
        endpoint = view.endpoint
        stored = self._slice(gid, self._stored_edges)
        return tuple((endpoint(e >> _SHIFT), endpoint(e & _LOW)) for e in stored)

    def all_edges(self) -> tuple[Edge, ...]:
        return tuple(edge for gid in self.graphs() for edge in self.edges(gid))

    def nodes(self) -> tuple[NodeId, ...]:
        view = self.view()
        return tuple(NodeId(view.paths[n]) for n in view.order if not view.graph[n])


def build(models: Iterable[ContractModel]) -> HypernodeGraph:
    """Assemble the hypernode graph for one unit's contract models.

    Deterministic: node and edge sets depend only on the models, never on
    dict iteration order or statement shuffling, because membership and
    edges are sorted at finalize time and identities are path-based. Each
    path is registered once and looked up by every later entry, statement
    and call that names it; edges are added as registry numbers.
    """
    models = list(models)
    h = HypernodeGraph()
    register, link = h._register, h._link

    # Registration pass: graphs first, then nodes, so every edge target
    # (including forward references to later functions) already exists.
    # Overloads share one hypernode.
    hypernode: dict[tuple[str, str], int] = {}
    for m in models:
        register((m.name,), GraphId)
    for m in models:
        for f in m.functions:
            path = (m.name, f.name)
            if path not in hypernode:
                hypernode[path] = register(path, GraphId)

    # Node + edge pass. Every entry of a function's table is referenced by
    # some statement, so it becomes a node even when no statement defines
    # anything (guards, returns, bare sends): source reads stay visible to
    # taint propagation.
    refs = h._fn_refs
    for m in models:
        sink = (m.name, EXTERNAL_SINK)  # registered on first use
        for f in m.functions:
            node = [register(d.path, NodeId) for d in f.decls]
            for stmt in f.statements:
                defs = [node[d] for d in stmt.defs]
                for u in stmt.uses:
                    for d in defs:
                        link(node[u], d)
                for site in stmt.calls:
                    if site.owner is not None:
                        target = hypernode[site.owner, site.name]
                    else:
                        target = register(sink, NodeId)
                        if not site.external:
                            h.diagnostics.append(
                                f"unresolved callee {site.name!r} in {m.name}.{f.name}"
                            )
                    for u in site.arg_reads:
                        link(node[u], target)
                    if site.owner is not None:
                        for d in defs:
                            link(target, d)
            # Overloads share one hypernode, so their references unite.
            g = hypernode[m.name, f.name]
            refs[g] = refs.get(g, ()) + tuple(node)
    return h.finalize()
