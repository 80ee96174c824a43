"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from first principles: the taint
closure is a naive repeat-until-stable scan, the slice predicate
re-derives node identities from each reference's scope and name through
Python's MRO, never from a path the library recorded, and the scoped-body
generator binds every identifier it writes by a scope model of its own. The graph generator
builds graphs directly, so `hypergraph.build` is never in the loop; the
model generator renders Solidity through `astgen` and lowers it.
"""

from __future__ import annotations

import random
from typing import Iterable

from astgen import (
    Bin,
    Call,
    Contract,
    Fn,
    Id,
    Lit,
    Member,
    SAssign,
    SDecl,
    SExpr,
    SFor,
    SIf,
    StateVar,
    Tuple_,
    Un,
    build_unit,
)
from ponzilens.hypergraph import GraphId, HypernodeGraph, NodeId
from ponzilens.ingest import load_ast
from ponzilens.model import ContractModel, FunctionModel, Scope, lower

Endpoint = NodeId | GraphId


def closure_taint(
    edges: Iterable[tuple[Endpoint, Endpoint]], sources: Iterable[Endpoint]
) -> tuple[set[Endpoint], set[tuple[Endpoint, Endpoint]]]:
    """Naive fixed point: rescan every edge until nothing new is marked."""
    edge_list = list(edges)
    tainted = set(sources)
    changed = True
    while changed:
        changed = False
        for tail, head in edge_list:
            if tail in tainted and head not in tainted:
                tainted.add(head)
                changed = True
    taint_edges = {(tail, head) for tail, head in edge_list if tail in tainted}
    return tainted, taint_edges


def random_hypergraph(
    rng: random.Random,
) -> tuple[HypernodeGraph, list[tuple[Endpoint, Endpoint]], list[NodeId], set[NodeId]]:
    """Random hierarchy of depth <= 4 with <= 50 nodes and no G-to-G edges.

    Returns the finalized graph, the raw edge list (possibly with
    duplicates), the node list, and a random source subset.
    """
    h = HypernodeGraph()
    all_graphs: list[GraphId] = [GraphId(())]
    frontier: list[GraphId] = [GraphId(())]
    serial = 0
    for _depth in range(3):
        grown: list[GraphId] = []
        for parent in frontier:
            for _ in range(rng.randrange(0, 3)):
                gid = GraphId(parent.path + (f"g{serial}",))
                serial += 1
                h.add_graph(gid)
                all_graphs.append(gid)
                grown.append(gid)
        if not grown:
            break
        frontier = grown

    nodes: list[NodeId] = []
    budget = rng.randrange(1, 51)
    for i in range(budget):
        parent = rng.choice(all_graphs)
        nid = NodeId(parent.path + (f"n{i}",))
        h.add_node(nid)
        nodes.append(nid)

    proper_graphs = [g for g in all_graphs if g.path]
    endpoints: list[Endpoint] = list(nodes) + list(proper_graphs)
    edges: list[tuple[Endpoint, Endpoint]] = []
    for _ in range(rng.randrange(0, 3 * len(endpoints) + 1)):
        tail = rng.choice(endpoints)
        head = rng.choice(endpoints)
        if isinstance(tail, GraphId) and isinstance(head, GraphId):
            continue
        edges.append((tail, head))
    for tail, head in edges:
        h.add_edge(tail, head)
    h.finalize()

    sources = {n for n in nodes if rng.random() < 0.2}
    return h, edges, nodes, sources


def rebuild_shuffled(
    base: HypernodeGraph,
    edges: list[tuple[Endpoint, Endpoint]],
    rng: random.Random,
) -> HypernodeGraph:
    """Same structure, freshly inserted with the edge order permuted."""
    h = HypernodeGraph()
    for gid in base.graphs():
        if gid.path:
            h.add_graph(gid)
    for nid in base.nodes():
        h.add_node(nid)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    for tail, head in shuffled:
        h.add_edge(tail, head)
    h.finalize()
    return h


def _linearizations(models: dict[str, ContractModel]) -> dict[str, list[str]]:
    """Solidity's C3 order of every contract, most-derived first, taken from
    Python's MRO.

    `contract C is A, B` becomes `class C(B, A)`: Solidity's rightmost base
    is the most derived, Python's leftmost. Bases outside the unit are
    skipped.
    """
    classes: dict[str, type] = {}

    def cls(name: str) -> type:
        if name not in classes:
            bases = [cls(b) for b in reversed(models[name].inherits) if b in models]
            classes[name] = type(name, tuple(bases) or (object,), {})
        return classes[name]

    return {n: [c.__name__ for c in cls(n).__mro__ if c is not object] for n in models}


def _ref_node(
    models: dict[str, ContractModel],
    lin: dict[str, list[str]],
    contract: str,
    fn: str,
    scope: Scope,
    name: str,
) -> NodeId:
    if scope is Scope.STATE:
        # The first contract on the linearization declaring the name.
        owner = next(
            (c for c in lin[contract] if any(v.name == name for v in models[c].state_vars)),
            contract,
        )
        return NodeId((owner, name))
    return NodeId((contract, fn, name))


def _function_nodes(
    models: dict[str, ContractModel], lin: dict[str, list[str]], contract: str, f: FunctionModel
) -> set[NodeId]:
    """The nodes `f`'s statements reference, from each reference's scope and
    name."""
    return {
        _ref_node(models, lin, contract, f.name, f.decls[i].scope, f.decls[i].name)
        for stmt in f.statements
        for i in stmt.defs + stmt.uses
    }


def reference_nodes(contracts: list[ContractModel]) -> dict[tuple[str, str], set[NodeId]]:
    """The nodes each (contract, function name) references; overloads share
    one set."""
    models = {m.name: m for m in contracts}
    lin = _linearizations(models)
    out: dict[tuple[str, str], set[NodeId]] = {}
    for m in contracts:
        for f in m.functions:
            out.setdefault((m.name, f.name), set()).update(_function_nodes(models, lin, m.name, f))
    return out


def selection_oracle(
    contracts: list[ContractModel],
    tainted: set[Endpoint],
    include_constructors: bool,
) -> list[tuple[str, str]]:
    """Re-derive which (contract, function) pairs a slice must keep."""
    models = {m.name: m for m in contracts}
    lin = _linearizations(models)
    tainted_nodes = {e for e in tainted if isinstance(e, NodeId)}
    tainted_graphs = {e for e in tainted if isinstance(e, GraphId)}
    tainted_state = {
        n for n in tainted_nodes if len(n.path) == 2 and n.path[1] != "@external"
    }

    keep: list[tuple[str, str, tuple[int, int]]] = []
    for m in contracts:
        for f in m.functions:
            selected = bool(_function_nodes(models, lin, m.name, f) & tainted_nodes)
            if not selected and GraphId((m.name, f.name)) in tainted_graphs:
                selected = True
            if not selected and include_constructors and f.name == "@ctor":
                visible = lin[m.name]
                selected = any(s.path[0] in visible for s in tainted_state)
            if selected:
                keep.append((m.name, f.name, f.source_span))
    keep.sort(key=lambda item: (item[2][0], item[0], item[1]))
    return [(c, f) for c, f, _span in keep]


def random_models(rng: random.Random) -> tuple[list[ContractModel], str]:
    """The lowered models of a random `astgen` unit, and its source.

    One to four contracts. A contract may list one or two earlier contracts
    as bases, in index order, which Solidity's C3 accepts, and a state
    variable may reuse the name of an earlier contract's, so which base
    declares a name depends on the linearization. Each function assigns
    over its parameters, its locals and the state of its contract and
    ancestors, and may read msg.sender or msg.value; no function calls
    another, so the models stay self-contained.
    """
    names = [f"K{i}" for i in range(rng.randrange(1, 5))]
    state_of: dict[str, list[str]] = {}
    inherits_of: dict[str, list[str]] = {}
    visible_of: dict[str, set[str]] = {}  # state names of a contract and its ancestors
    for i, cname in enumerate(names):
        n_bases = rng.choice((0, 1, 1, 2, 2)) if i else 0
        inherits_of[cname] = [names[j] for j in sorted(rng.sample(range(i), min(n_bases, i)))]
        taken = sorted({v for c in names[:i] for v in state_of[c]})
        state_of[cname] = [
            rng.choice(taken) if taken and rng.random() < 0.4 else f"s{i}_{j}"
            for j in range(rng.randrange(0, 4))
        ]
        visible_of[cname] = set(state_of[cname]).union(
            *(visible_of[b] for b in inherits_of[cname])
        )

    contracts = []
    for i, cname in enumerate(names):
        members: list = [StateVar("uint", v) for v in state_of[cname]]
        for k in range(rng.randrange(0, 5)):
            params = [f"p{j}" for j in range(rng.randrange(0, 3))]
            locals_ = [f"v{j}" for j in range(rng.randrange(0, 3))]
            pool = locals_ + params + sorted(visible_of[cname])
            body: list = [SDecl("uint", v) for v in locals_]
            for _ in range(rng.randrange(0, 6)):
                targets = [Id(n) for n in rng.sample(pool, k=rng.randrange(0, min(3, len(pool) + 1)))]
                reads = [Id(n) for n in rng.sample(pool, k=rng.randrange(0, min(3, len(pool) + 1)))]
                if rng.random() < 0.35:
                    reads.append(Member(Id("msg"), rng.choice(("sender", "value"))))
                value = reads[0] if reads else Lit(0)
                for r in reads[1:]:
                    value = Bin(value, "+", r)
                if not targets:
                    body.append(SExpr(Call(Id("require"), [value])))
                else:
                    body.append(SAssign(targets[0] if len(targets) == 1 else Tuple_(targets), "=", value))
            ctor = k == 0 and rng.random() < 0.3
            members.append(
                Fn(
                    "" if ctor else f"f{i}_{k}",
                    [("uint", p) for p in params],
                    body,
                    kind="constructor" if ctor else "function",
                )
            )
        contracts.append(Contract(cname, members, inherits_of[cname]))
    source, doc = build_unit("random", contracts)
    return lower(load_ast(doc)), source


_SCOPED_NAMES = ("a", "b", "c", "d", "e")
Binding = tuple[str, tuple[str, ...]]  # (scope value, node path)


def random_scoped_unit(
    rng: random.Random, pragma: str
) -> tuple[dict, list[tuple[frozenset[Binding], frozenset[Binding]]]]:
    """A unit whose one function `S.f` nests `if` blocks and `for` loops,
    and for each statement lowering makes of it, in order, the (defs, uses)
    its identifiers are meant to bind to.

    State variables, parameters and locals share five names, so locals
    shadow state, parameters and outer locals, and sibling blocks reuse
    names. From 0.5.0 on (by `pragma`), the function body, each block and
    each loop open a scope, and a local is visible from the end of its
    declaration to the end of its scope; before, every local is visible
    from the end of its declaration to the end of the function. An
    identifier with no declaration in sight binds to the state variable of
    its name, or to nothing. Each declaration is its own binding: the first
    of a name to be referenced has the path (S, f, name), later ones
    (S, f, name#2), (S, f, name#3), ...
    """
    block_scoped = not pragma.lstrip("^").startswith("0.4")
    state = rng.sample(_SCOPED_NAMES, rng.randrange(0, 4))
    params = rng.sample(_SCOPED_NAMES, rng.randrange(0, 3))
    # A declaration is [scope value, name, path once referenced].
    scopes: list[dict[str, list]] = [{p: ["param", p, None] for p in params}]
    referenced: dict[str, int] = {}
    records: list[tuple[frozenset[Binding], frozenset[Binding]]] = []

    def bind(name: str) -> Binding | None:
        decl = next((s[name] for s in reversed(scopes) if name in s), None)
        if decl is None:
            return ("state", ("S", name)) if name in state else None
        if decl[2] is None:
            n = referenced[name] = referenced.get(name, 0) + 1
            decl[2] = ("S", "f", name if n == 1 else f"{name}#{n}")
        return (decl[0], decl[2])

    def reads() -> tuple[object, set[Binding]]:
        names = [rng.choice(_SCOPED_NAMES) for _ in range(rng.randrange(0, 3))]
        bound = {b for b in map(bind, names) if b is not None}
        expr = Id(names[0]) if names else Lit(1)
        for name in names[1:]:
            expr = Bin(expr, "+", Id(name))
        return expr, bound

    def record(defs: set, uses: set) -> None:
        records.append((frozenset(defs), frozenset(uses)))

    def declare(name: str, value: object, uses: set) -> SDecl:
        # The initializer is bound before the new local is in scope.
        scopes[-1][name] = ["local", name, None]
        record({bind(name)}, uses)
        return SDecl("uint", name, value)

    def block(depth: int) -> list:
        if block_scoped:
            scopes.append({})
        body = [statement(depth) for _ in range(rng.randrange(1, 4))]
        if block_scoped:
            scopes.pop()
        return body

    def statement(depth: int):
        roll = rng.random()
        name = rng.choice(_SCOPED_NAMES)
        if depth < 3 and roll < 0.2:
            cond, uses = reads()
            record(set(), uses)
            return SIf(cond, block(depth + 1))
        if depth < 3 and roll < 0.35:
            if block_scoped:
                scopes.append({})
            value, uses = reads()
            init = declare(name, value, uses)
            limit = rng.choice(_SCOPED_NAMES)
            record(set(), {bind(name), bind(limit)} - {None})
            body = block(depth + 1)
            step = {bind(name)}  # after the body's own scope has closed
            record(step, step)
            if block_scoped:
                scopes.pop()
            return SFor(init, Bin(Id(name), "<", Id(limit)), Un("++", Id(name), prefix=False), body)
        if roll < 0.65:
            value, uses = reads()
            return declare(name, value, uses)
        target = bind(name)
        value, uses = reads()
        record({target} - {None}, uses)
        return SAssign(Id(name), "=", value)

    if block_scoped:
        scopes.append({})  # the function body's block
    body = [statement(0) for _ in range(rng.randrange(1, 6))]
    members = [StateVar("uint", v) for v in state] + [Fn("f", [("uint", p) for p in params], body)]
    version = pragma.lstrip("^")
    return build_unit("scoped", [Contract("S", members)], pragma, version)[1], records
