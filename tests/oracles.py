"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from first principles: the taint
closure is a naive repeat-until-stable scan, the slice predicate re-derives
node identities without touching the library helpers, and the generators
build graphs and contract models directly so the production builders are
never in the loop.
"""

from __future__ import annotations

import random
from typing import Iterable

from ponzilens.hypergraph import GraphId, HypernodeGraph, NodeId
from ponzilens.model import (
    ContractModel,
    FunctionModel,
    Kind,
    Scope,
    Statement,
    VarRef,
    VariableDecl,
)

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
    ref: VarRef,
) -> NodeId:
    if ref.scope is Scope.STATE:
        # The first contract on the linearization declaring the name.
        owner = next(
            (c for c in lin[contract] if any(v.name == ref.name for v in models[c].state_vars)),
            contract,
        )
        return NodeId((owner, ref.name))
    return NodeId((contract, fn, ref.name))


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
            refs: set[VarRef] = set()
            for stmt in f.statements:
                refs |= stmt.defs | stmt.uses
            nodes = {_ref_node(models, lin, m.name, f.name, r) for r in refs}
            selected = bool(nodes & tainted_nodes)
            if not selected and GraphId((m.name, f.name)) in tainted_graphs:
                selected = True
            if not selected and include_constructors and f.name == "@ctor":
                visible = lin[m.name]
                selected = any(s.path[0] in visible for s in tainted_state)
            if selected:
                keep.append((m.name, f.name, f.source_span))
    keep.sort(key=lambda item: (item[2][0], item[0], item[1]))
    return [(c, f) for c, f, _span in keep]


_BUILTINS = (
    VarRef(scope=Scope.BUILTIN, name="msg.sender"),
    VarRef(scope=Scope.BUILTIN, name="msg.value"),
)


def random_models(rng: random.Random) -> tuple[list[ContractModel], str]:
    """Random contract models plus a synthetic source their spans index into.

    Functions have random def/use sets over params, locals, state vars of
    the contract and its ancestors, and the builtin sources; no call sites
    are emitted so the models stay self-contained. A contract may list one
    or two earlier contracts as bases, in index order, which Solidity's C3
    accepts, and a state variable may reuse the name of an earlier
    contract's, so which base declares a name depends on the linearization.
    """
    n_contracts = rng.randrange(1, 5)
    names = [f"K{i}" for i in range(n_contracts)]
    chunks: list[str] = []
    pos = 0
    contracts: list[ContractModel] = []
    state_of: dict[str, list[VariableDecl]] = {}
    inherits_of: dict[str, list[str]] = {}
    visible_of: dict[str, set[str]] = {}  # state names of a contract and its ancestors

    for i, cname in enumerate(names):
        n_bases = rng.choice((0, 1, 1, 2, 2)) if i else 0
        inherits_of[cname] = [names[j] for j in sorted(rng.sample(range(i), min(n_bases, i)))]
        taken = sorted({v.name for c in names[:i] for v in state_of[c]})
        state_of[cname] = [
            VariableDecl(
                name=rng.choice(taken) if taken and rng.random() < 0.4 else f"s{i}_{j}",
                type_name="uint",
            )
            for j in range(rng.randrange(0, 4))
        ]
        visible_of[cname] = {v.name for v in state_of[cname]}.union(
            *(visible_of[b] for b in inherits_of[cname])
        )

    for i, cname in enumerate(names):
        visible_state = sorted(visible_of[cname])

        functions: list[FunctionModel] = []
        n_fns = rng.randrange(0, 5)
        for k in range(n_fns):
            if k == 0 and rng.random() < 0.3:
                fname = "@ctor"
            else:
                fname = f"f{i}_{k}"
            locals_ = [
                VarRef(scope=Scope.LOCAL, name=f"v{j}")
                for j in range(rng.randrange(0, 3))
            ]
            params = [
                VarRef(scope=Scope.PARAM, name=f"p{j}")
                for j in range(rng.randrange(0, 3))
            ]
            pool: list[VarRef] = list(locals_) + list(params)
            pool += [VarRef(scope=Scope.STATE, name=v) for v in visible_state]
            statements: list[Statement] = []
            for _ in range(rng.randrange(0, 6)):
                k_defs = rng.randrange(0, min(3, len(pool) + 1)) if pool else 0
                k_uses = rng.randrange(0, min(3, len(pool) + 1)) if pool else 0
                defs = set(rng.sample(pool, k=k_defs))
                uses = set(rng.sample(pool, k=k_uses))
                if rng.random() < 0.35:
                    uses.add(rng.choice(_BUILTINS))
                statements.append(
                    Statement(
                        kind=Kind.ASSIGN,
                        defs=frozenset(defs),
                        uses=frozenset(uses),
                    )
                )
            body = "".join(
                f"  op {cname}_{fname.lstrip('@')}_{j};\n"
                for j in range(len(statements) + 1)
            )
            text = f"function {fname.lstrip('@')}_{cname}() x {{\n{body}}}"
            span = (pos, len(text))
            chunks.append(text)
            pos += len(text) + 2
            functions.append(
                FunctionModel(
                    contract=cname,
                    name=fname,
                    statements=statements,
                    source_span=span,
                    params=[VariableDecl(name=p.name) for p in params],
                    locals=[VariableDecl(name=v.name) for v in locals_],
                )
            )
        contracts.append(
            ContractModel(
                name=cname,
                state_vars=list(state_of[cname]),
                functions=functions,
                inherits=list(inherits_of[cname]),
            )
        )
    source = "\n\n".join(chunks)
    return contracts, source
