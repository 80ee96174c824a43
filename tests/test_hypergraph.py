"""Hierarchical graph construction: nesting, identity, edge placement."""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import random

import pytest

import fixutil
import oracles
from astgen import Call, Contract, Fn, Id, SDecl, SExpr, SReturn, StateVar, build_unit
from ponzilens.cli import graph_document
from ponzilens.detect import run_static_pipeline
from ponzilens.errors import UnknownGraph
from ponzilens.hypergraph import (
    ROOT,
    GraphId,
    HypernodeGraph,
    NodeId,
    build,
    endpoint_key,
)
from ponzilens.ingest import load_ast
from ponzilens.model import lower
from ponzilens.render import to_dot
from ponzilens.slicing import combine_slices, select_functions
from ponzilens.taint import default_sources, tpa
from programs import pay_help_unit


def _graph(name: str):
    u = fixutil.load_unit(name)
    models = lower(u)
    return build(models), models


def _function_refs(h: HypernodeGraph, models) -> dict[GraphId, frozenset[NodeId]]:
    """Per function hypernode, the nodes `function_refs` records for it, as
    ids."""
    endpoint = h.view().endpoint
    out = {}
    for m in models:
        for f in m.functions:
            g, nodes = h.function_refs(m.name, f.name)
            out[endpoint(g)] = frozenset(map(endpoint, nodes))
    return out


def _filed_edges(h: HypernodeGraph, sources=None) -> list[tuple[tuple[str, ...], ...]]:
    """(tail path, head path, path of the graph the edge is listed under)
    for every edge of the `--dump-graph` document, repeats kept."""
    sources = default_sources(h) if sources is None else sources
    doc = json.loads(graph_document(h, tpa(h, sources)))
    return [
        (tuple(a["path"]), tuple(b["path"]), tuple(g["id"]["path"]))
        for g in doc["graphs"]
        for a, b in g["edges"]
    ]


def _edge_strs(h: HypernodeGraph) -> set[tuple[str, str, tuple[str, ...]]]:
    """(tail, head, path of the graph the dump lists the edge under) for
    every edge."""
    return {(".".join(a), ".".join(b), g) for a, b, g in _filed_edges(h)}


def test_three_level_nesting():
    h, _ = _graph("simple_ponzi")
    assert [str(g) for g in h.graphs()] == ["<root>", "SimplePonzi", "SimplePonzi.enter"]
    assert h.members(ROOT) == (GraphId(("SimplePonzi",)),)
    assert [str(m) for m in h.members(GraphId(("SimplePonzi",)))] == [
        "SimplePonzi.@external",
        "SimplePonzi.balance",
        "SimplePonzi.enter",
        "SimplePonzi.payoutIdx",
        "SimplePonzi.persons",
    ]
    assert [str(m) for m in h.members(GraphId(("SimplePonzi", "enter")))] == [
        "SimplePonzi.enter.amount",
        "SimplePonzi.enter.idx",
        "SimplePonzi.enter.msg.sender",
        "SimplePonzi.enter.msg.value",
        "SimplePonzi.enter.transactionAmount",
    ]


def test_external_sink_materializes_only_when_needed():
    h, _ = _graph("two_contracts")
    # Beta calls an unresolvable function, Alpha does not.
    assert NodeId(("Beta", "@external")) in h.members(GraphId(("Beta",)))
    assert NodeId(("Alpha", "@external")) not in h.members(GraphId(("Alpha",)))
    h2, _ = _graph("simple_ponzi")
    # Value transfers leave the unit, so they also target the sink.
    assert NodeId(("SimplePonzi", "@external")) in h2.members(GraphId(("SimplePonzi",)))
    h3, _ = _graph("hollow")
    assert all(n.path[-1] != "@external" for n in h3.nodes())


def test_state_node_shared_across_functions():
    h, _ = _graph("pool")
    pool_size = NodeId(("Pool", "poolSize"))
    touching = {
        str(e[0].path[1]) if len(e[0].path) > 1 else ""
        for e in h.all_edges()
        if pool_size in e
    }
    # deposit writes it, audit returns it, flush sends it: one shared node.
    assert pool_size in h.members(GraphId(("Pool",)))
    assert NodeId(("Pool", "deposit", "poolSize")) not in h.nodes()
    assert len([n for n in h.nodes() if n.path[-1] == "poolSize"]) == 1
    assert touching


def test_inherited_state_binds_to_declaring_contract():
    h, _ = _graph("inherit")
    assert _edge_strs(h) == {
        ("Base.reserve", "Child.drain.take", ()),
        ("Child.drain.take", "Base.reserve", ()),
        ("Base.put.msg.value", "Base.reserve", ("Base",)),
        ("Base.reserve", "Base.reserve", ("Base",)),
        ("Child.drain.take", "Child.@external", ("Child",)),
        ("Child.drain.target", "Child.@external", ("Child",)),
    }
    # No duplicate reserve node under Child.
    assert NodeId(("Child", "reserve")) not in h.nodes()


def test_edge_owner_is_lowest_common_graph():
    h, _ = _graph("caller")
    assert _edge_strs(h) == {
        ("Caller.counter", "Caller.counter", ("Caller",)),
        ("Caller.stash.v", "Caller.vault", ("Caller",)),
        ("Caller.take.msg.value", "Caller.stash", ("Caller",)),
    }


def test_call_argument_edge_targets_hypernode():
    h, _ = _graph("caller")
    arg_edge = (NodeId(("Caller", "take", "msg.value")), GraphId(("Caller", "stash")))
    assert arg_edge in h.all_edges()


def test_call_result_edge_leaves_hypernode():
    _, doc = build_unit(
        "ret",
        [
            Contract(
                "Ret",
                [
                    StateVar("uint", "seed"),
                    Fn("helper", [("uint", "x")], [SReturn(Id("x"))], returns=[("uint", "")]),
                    Fn("run", [], [SDecl("uint", "y", Call(Id("helper"), [Id("seed")]))]),
                ],
            )
        ],
    )
    u = load_ast(doc)
    h = build(lower(u))
    assert _edge_strs(h) == {
        ("Ret.seed", "Ret.helper", ("Ret",)),
        ("Ret.helper", "Ret.run.y", ("Ret",)),
        ("Ret.seed", "Ret.run.y", ("Ret",)),
    }


def test_unresolved_call_routes_to_sink_with_diagnostic():
    h, _ = _graph("two_contracts")
    assert h.diagnostics == ["unresolved callee 'mystery' in Beta.ping"]
    assert (NodeId(("Beta", "ping", "n")), NodeId(("Beta", "@external"))) in h.all_edges()


def test_cross_contract_isolation():
    h, _ = _graph("two_contracts")
    owners = {graph for _tail, _head, graph in _edge_strs(h)}
    assert owners == {("Alpha",), ("Beta",)}


def test_defless_statements_still_materialize_nodes():
    # require(msg.sender == owner) defines nothing, yet both refs must
    # appear as nodes or taint sources would be dropped.
    h, _ = _graph("gated")
    assert NodeId(("Gated", "sweep", "msg.sender")) in h.nodes()
    assert NodeId(("Gated", "owner")) in h.members(GraphId(("Gated",)))


def test_no_hypernode_to_hypernode_edges():
    h = HypernodeGraph()
    a = h.add_graph(GraphId(("A",)))
    b = h.add_graph(GraphId(("B",)))
    with pytest.raises(ValueError):
        h.add_edge(a, b)


def test_unregistered_parent_or_endpoint_raises():
    h = HypernodeGraph()
    with pytest.raises(UnknownGraph):
        h.add_graph(GraphId(("A", "f")))
    with pytest.raises(UnknownGraph):
        h.add_node(NodeId(("A", "x")))
    h.add_graph(GraphId(("A",)))
    n = h.add_node(NodeId(("A", "x")))
    with pytest.raises(UnknownGraph):
        h.add_edge(n, NodeId(("A", "ghost")))
    with pytest.raises(UnknownGraph):
        h.members(GraphId(("Z",)))


def test_graph_of_returns_members_and_edges():
    h, _ = _graph("caller")
    members, edges = h.members(GraphId(("Caller",))), h.all_edges()
    assert GraphId(("Caller", "stash")) in members
    assert edges and all(a.path[0] == b.path[0] == "Caller" for a, b in edges)


def test_dump_lists_each_edge_once_under_the_lowest_graph_holding_both():
    # Brute force: a graph holds an endpoint when its path is a proper
    # prefix of the endpoint's; the edge belongs to the longest such graph
    # that holds both endpoints.
    rng = random.Random(26)
    for i in range(200):
        h, _edges, _nodes, sources = oracles.random_hypergraph(rng)
        graphs = [gid.path for gid in h.graphs()]

        def lowest(a, b):
            def holds(g, ep):
                return len(g) < len(ep) and ep[: len(g)] == g

            return max((g for g in graphs if holds(g, a) and holds(g, b)), key=len)

        want = [(a.path, b.path, lowest(a.path, b.path)) for a, b in h.all_edges()]
        filed = _filed_edges(h, oracles.numbers(h, sources))
        assert len(want) == len(set(want)), f"graph {i}: an edge repeats"
        assert sorted(filed) == sorted(want), f"graph {i}: placements differ"


def test_rebuild_is_deterministic():
    h1, _ = _graph("simple_ponzi")
    h2, _ = _graph("simple_ponzi")
    assert h1.graphs() == h2.graphs()
    assert h1.nodes() == h2.nodes()
    assert h1.all_edges() == h2.all_edges()


def test_function_node_id_resolution():
    # build makes a node per table entry and records the nodes per function.
    h, models = _graph("inherit")
    refs = _function_refs(h, models)
    assert set(refs) == {GraphId(("Base", "put")), GraphId(("Child", "drain"))}
    drain = refs[GraphId(("Child", "drain"))]
    assert NodeId(("Base", "reserve")) in drain
    assert NodeId(("Child", "drain", "take")) in drain
    assert NodeId(("Child", "reserve")) not in drain
    assert NodeId(("Base", "reserve")) in refs[GraphId(("Base", "put"))]
    assert models[1].linearization == ("Child", "Base")


def test_names_function_walks_bases():
    # Child.go calls the inherited put and an undeclared missing; Base.again
    # calls put in its own contract.
    base = Contract(
        "Base",
        [Fn("put", [], []), Fn("again", [], [SExpr(Call(Id("put")))])],
    )
    child = Contract(
        "Child", [Fn("go", [], [SExpr(Call(Id("put"))), SExpr(Call(Id("missing")))])], ["Base"]
    )
    base_model, child_model = lower(load_ast(build_unit("walk", [base, child])[1]))
    again, go = base_model.functions[1], child_model.functions[0]
    sites = [s.calls[0] for s in go.statements + again.statements]
    assert [(c.name, c.owner) for c in sites] == [("put", "Base"), ("missing", None), ("put", "Base")]


def test_rightmost_base_wins_under_multiple_inheritance():
    # contract C is A, B: Solidity linearizes C, B, A, so both the state
    # variable and the called function come from B.
    h, _ = _graph("multi_base")
    assert _edge_strs(h) == {
        ("C.go.msg.value", "B.x", ()),
        ("C.go.msg.value", "B.f", ()),
        ("A.f.v", "A.x", ("A",)),
        ("B.f.v", "B.x", ("B",)),
    }


def test_hollow_unit_builds_empty_graphs():
    h, models = _graph("hollow")
    assert {m.name for m in models} == {"Hollow", "Noop"}
    assert h.all_edges() == ()
    assert GraphId(("Noop", "nothing")) in h.graphs()


def test_ids_across_views_are_the_registered_endpoints():
    h, models = _graph("inherit")
    t = tpa(h, default_sources(h))
    refs = _function_refs(h, models)
    seen = [ep for gid in h.graphs() for ep in (gid, *h.members(gid))]
    seen += [ep for edge in h.all_edges() for ep in edge]
    seen += [*refs, *(ep for nodes in refs.values() for ep in nodes), *h.nodes()]
    seen += [*t.tainted, *(ep for edge in t.taint_edges for ep in edge)]
    view = h.view()
    registered = set(map(view.endpoint, range(len(view.paths))))
    assert len(registered) == len(view.paths)
    assert set(seen) == registered
    # A freshly made id finds its endpoint, and registering it again
    # changes nothing: the view is not dropped.
    assert NodeId(("Base", "reserve")) in t.tainted
    assert NodeId(("Base", "reserve")) in h.members(GraphId(("Base",)))
    assert h.add_node(NodeId(("Base", "reserve"))) == NodeId(("Base", "reserve"))
    assert h.add_graph(GraphId(("Base", "put"))) == GraphId(("Base", "put"))
    assert h.view() is view


def test_ids_keep_value_semantics():
    a, b = NodeId(("C", "x")), NodeId(("C", "x"))
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1
    assert NodeId(("C", "f")) != GraphId(("C", "f"))
    assert len({NodeId(("C", "f")), GraphId(("C", "f"))}) == 2
    assert sorted([NodeId(("b",)), NodeId(("a", "z"))]) == [NodeId(("a", "z")), NodeId(("b",))]
    assert GraphId(("a",)) <= GraphId(("a",)) < GraphId(("a", "b"))
    with pytest.raises(TypeError):
        _ = NodeId(("a",)) < GraphId(("a",))
    assert endpoint_key(NodeId(("C",))) == (("C",), 0)
    assert endpoint_key(NodeId(("C",))) < endpoint_key(GraphId(("C",)))
    assert str(NodeId(("C", "f", "v"))) == "C.f.v" and str(ROOT) == "<root>"
    assert repr(a) == "NodeId(path=('C', 'x'))"
    assert repr(GraphId(("C",))) == "GraphId(path=('C',))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.path = ("D",)
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a
    assert pickle.loads(pickle.dumps(ROOT)) == ROOT


def test_mutation_after_finalize_is_seen_by_tpa():
    h, _ = _graph("caller")
    sources = default_sources(h)
    local = NodeId(("Caller", "stash", "v"))
    before = tpa(h, sources)
    tainted, taint_edges = before.tainted, before.taint_edges
    assert local not in tainted
    h.add_node(NodeId(("Caller", "take", "late")))
    h.add_edge(NodeId(("Caller", "take", "msg.value")), local)
    mutated = tpa(h, sources)
    assert local in mutated.tainted
    again = tpa(h.finalize(), sources)
    assert (mutated.tainted, mutated.taint_edges) == (again.tainted, again.taint_edges)
    # A result taken before the mutation still describes the graph it was
    # taken from: its view is not the one the mutation made.
    assert before.tainted == tainted and before.taint_edges == taint_edges
    assert before.tainted != mutated.tainted
    # Reads after the mutation are sorted again, new members included.
    assert [str(m) for m in h.members(GraphId(("Caller", "take")))] == [
        "Caller.take.late",
        "Caller.take.msg.value",
    ]
    assert list(h.nodes()) == sorted(h.nodes(), key=endpoint_key)


def test_lower_and_build_allocation_budget():
    # GC-tracked objects that outlive lower + build on 300 pay/help pairs.
    # The count repeats exactly once caches are warm: 6,619 on CPython 3.11
    # since the registry keeps paths and kind flags, not ids (8,721 with
    # one interned id per path; 9,023 when build kept per-function node
    # numbers; 9,626 with a frozenset of ids per function; 11,135 before
    # names were bound in lower; 23,122 before ids were one object per path
    # and the graph kept as ints). The bound is the 6,619 count plus about
    # 10 %.
    u = load_ast(pay_help_unit(300)[1])

    def survivors() -> int:
        gc.collect()
        before = len(gc.get_objects())
        models = lower(u)
        h = build(models)  # noqa: F841 (counted while alive)
        gc.collect()
        return len(gc.get_objects()) - before

    survivors()
    assert survivors() < 7_300


def test_build_leaves_no_id_alive():
    # The graph keeps numbers, paths and kind flags; a NodeId or GraphId is
    # made only when a query reads an endpoint.
    models = lower(load_ast(pay_help_unit(30)[1]))

    def ids() -> int:
        gc.collect()
        return sum(isinstance(o, (NodeId, GraphId)) for o in gc.get_objects())

    before = ids()
    h = build(models)
    assert ids() == before
    nodes = h.nodes()
    assert nodes and ids() == before + len(nodes)


def test_taint_slice_and_render_allocation_budget():
    # GC-tracked objects, dicts aside, that outlive tpa, select_functions,
    # combine_slices and to_dot on 300 pay/help pairs, the graph built
    # beforehand: 7 on CPython 3.11, the results themselves (1,806 while the
    # taint result held sets of endpoints and edges, and slicing read
    # per-function sets of ids). Dicts are left out because CPython before
    # 3.11 tracks instance dicts as objects of their own. The bound is that
    # count plus 10 %, so endpoint or edge sets made on this path fail it.
    u = load_ast(pay_help_unit(300)[1])
    models = lower(u)
    h = build(models)

    def tracked() -> int:
        gc.collect()
        return sum(not isinstance(o, dict) for o in gc.get_objects())

    def survivors() -> int:
        before = tracked()
        t = tpa(h, default_sources(h))
        bundle = combine_slices(select_functions(t, h, models), models, u.source_text)  # noqa: F841
        dot = to_dot(t, h)  # noqa: F841 (counted while alive)
        return tracked() - before

    survivors()
    assert survivors() <= 7


def test_static_pipeline_makes_no_ids_and_keeps_raw_statement_src(monkeypatch):
    # The pipeline trades in registry numbers: no id is made, none is left
    # alive, and statements keep their AST node's own `src` string. The
    # constructor rule is exercised: Init's constructor touches no tainted
    # name and is kept for the tainted state variable `pot`.
    unit = fixutil.load_unit("init_rule")
    made = []
    for cls in (NodeId, GraphId):

        def counted(self, path, _init=cls.__init__):
            made.append(path)
            _init(self, path)

        monkeypatch.setattr(cls, "__init__", counted)

    def alive() -> int:
        gc.collect()
        return sum(isinstance(o, (NodeId, GraphId)) for o in gc.get_objects())

    before = alive()
    art = run_static_pipeline(unit)
    assert "Init.@ctor" in art.bundle.selected
    assert made == [] and alive() == before

    srcs, stack = {}, [unit.ast_json]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if isinstance(node.get("src"), str):
                srcs[id(node["src"])] = node["src"]
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    statements = [s for m in art.models for f in m.functions for s in f.statements]
    assert statements and all(srcs.get(id(s.src)) is s.src for s in statements)
