"""Hierarchical graph construction: nesting, identity, edge placement."""

from __future__ import annotations

import dataclasses
import gc
import pickle

import pytest

import fixutil
from astgen import Call, Contract, Fn, Id, SDecl, SReturn, StateVar, build_unit
from ponzilens.errors import NoSpan, UnknownGraph
from ponzilens.hypergraph import (
    ROOT,
    GraphId,
    HypernodeGraph,
    NodeId,
    build,
    endpoint_key,
)
from ponzilens.ingest import load_ast
from ponzilens.model import Names, lower
from ponzilens.render import to_dot
from ponzilens.slicing import combine_slices, select_functions
from ponzilens.taint import default_sources, tpa
from programs import pay_help_unit


def _graph(name: str):
    u = fixutil.load_unit(name)
    models = lower(u)
    return build(models, u.source_text), models


def _edge_strs(h: HypernodeGraph) -> set[tuple[str, str, tuple[str, ...]]]:
    """(tail, head, path of the graph storing the edge) for every edge."""
    return {(str(a), str(b), gid.path) for gid in h.graphs() for a, b in h.edges(gid)}


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
    assert arg_edge in h.edges(GraphId(("Caller",)))


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
    h = build(lower(u), u.source_text)
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
    owners = {gid.path for gid in h.graphs() if h.edges(gid)}
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
    with pytest.raises(UnknownGraph):
        h.edges(GraphId(("Z",)))


def test_graph_of_returns_members_and_edges():
    h, _ = _graph("caller")
    members, edges = h.members(GraphId(("Caller",))), h.edges(GraphId(("Caller",)))
    assert GraphId(("Caller", "stash")) in members
    assert edges and all(a.path[0] == b.path[0] == "Caller" for a, b in edges)


def test_rebuild_is_deterministic():
    h1, _ = _graph("simple_ponzi")
    h2, _ = _graph("simple_ponzi")
    assert h1.graphs() == h2.graphs()
    assert h1.nodes() == h2.nodes()
    assert h1.all_edges() == h2.all_edges()
    assert h1.span_map == h2.span_map


def test_source_slice_exact_and_nospan():
    h, _ = _graph("pool")
    text = h.source_slice(GraphId(("Pool", "deposit")))
    assert text.startswith("function deposit()")
    assert text.endswith("}")
    with pytest.raises(NoSpan):
        h.source_slice(NodeId(("Pool", "deposit", "msg.value")))


def test_function_node_id_resolution():
    # build makes a node per table entry and records the nodes per function.
    h, models = _graph("inherit")
    assert set(h.refs) == {GraphId(("Base", "put")), GraphId(("Child", "drain"))}
    drain = h.refs[GraphId(("Child", "drain"))]
    assert NodeId(("Base", "reserve")) in drain
    assert NodeId(("Child", "drain", "take")) in drain
    assert NodeId(("Child", "reserve")) not in drain
    assert NodeId(("Base", "reserve")) in h.refs[GraphId(("Base", "put"))]
    assert models[1].linearization == ("Child", "Base")


def test_names_function_walks_bases():
    _, models = _graph("inherit")
    names = Names(models)
    assert names.function("Child", "put") == "Base"
    assert names.function("Base", "put") == "Base"
    assert names.function("Child", "missing") is None


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


def test_one_object_per_path_across_views():
    h, _ = _graph("inherit")
    t = tpa(h, default_sources(h))
    seen = [ep for gid in h.graphs() for ep in (gid, *h.members(gid))]
    seen += [ep for edge in h.all_edges() for ep in edge]
    seen += [*h.refs, *(ep for nodes in h.refs.values() for ep in nodes), *h.nodes()]
    seen += [*t.tainted, *(ep for edge in t.taint_edges for ep in edge)]
    registered: dict = {}
    for ep in seen:
        assert registered.setdefault((type(ep), ep.path), ep) is ep, ep
    # A freshly made id still finds its registered twin, and registering
    # it again hands back the registered object.
    reserve = registered[NodeId, ("Base", "reserve")]
    assert NodeId(("Base", "reserve")) in t.tainted
    assert NodeId(("Base", "reserve")) in h.members(GraphId(("Base",)))
    assert h.add_node(NodeId(("Base", "reserve"))) is reserve
    assert h.add_graph(GraphId(("Base", "put"))) is registered[GraphId, ("Base", "put")]


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
    assert local not in tpa(h, sources).tainted
    h.add_node(NodeId(("Caller", "take", "late")))
    h.add_edge(NodeId(("Caller", "take", "msg.value")), local)
    mutated = tpa(h, sources)
    assert local in mutated.tainted
    assert mutated == tpa(h.finalize(), sources)
    # Reads after the mutation are sorted again, new members included.
    assert [str(m) for m in h.members(GraphId(("Caller", "take")))] == [
        "Caller.take.late",
        "Caller.take.msg.value",
    ]
    assert list(h.nodes()) == sorted(h.nodes(), key=endpoint_key)


def test_lower_and_build_allocation_budget():
    # GC-tracked objects that outlive lower + build on 300 pay/help pairs.
    # The count repeats exactly once caches are warm: 9,023 on CPython 3.11
    # since build keeps per-function node numbers (9,626 with a frozenset
    # of ids per function; 11,135 before names were bound in lower; 23,122
    # before ids were one object per path and the graph kept as ints). The
    # bound is the 11,135 count plus about 10 %.
    u = load_ast(pay_help_unit(300)[1])

    def survivors() -> int:
        gc.collect()
        before = len(gc.get_objects())
        models = lower(u)
        h = build(models, u.source_text)  # noqa: F841 (counted while alive)
        gc.collect()
        return len(gc.get_objects()) - before

    survivors()
    assert survivors() < 12_250


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
    h = build(models, u.source_text)

    def tracked() -> int:
        gc.collect()
        return sum(not isinstance(o, dict) for o in gc.get_objects())

    def survivors() -> int:
        before = tracked()
        t = tpa(h, default_sources(h))
        bundle = combine_slices(select_functions(t, h, models), h, models)  # noqa: F841
        dot = to_dot(t, h)  # noqa: F841 (counted while alive)
        return tracked() - before

    survivors()
    assert survivors() <= 7
