"""Fixed-point propagation against frozen fixtures and a naive oracle."""

from __future__ import annotations

import random

import fixutil
import pytest
import oracles
from ponzilens.hypergraph import GraphId, NodeId, build
from ponzilens.model import lower
from ponzilens.taint import default_sources, tainted_state_vars, tpa


def _taint(name: str):
    u = fixutil.load_unit(name)
    models = lower(u)
    h = build(models)
    return tpa(h, default_sources(h)), h


def _paths(endpoints) -> set[str]:
    return {str(e) for e in endpoints}


def _state_paths(t, h) -> set[str]:
    paths = h.view().paths
    return {".".join(paths[n]) for n in tainted_state_vars(t)}


def test_simple_ponzi_tainted_set():
    t, h = _taint("simple_ponzi")
    assert _paths(t.tainted) == {
        "SimplePonzi.@external",
        "SimplePonzi.balance",
        "SimplePonzi.enter.amount",
        "SimplePonzi.enter.idx",
        "SimplePonzi.enter.msg.sender",
        "SimplePonzi.enter.msg.value",
        "SimplePonzi.enter.transactionAmount",
        "SimplePonzi.persons",
    }
    # The payout cursor is only written from a constant expression.
    assert NodeId(("SimplePonzi", "payoutIdx")) not in t.tainted
    assert _state_paths(t, h) == {
        "SimplePonzi.balance",
        "SimplePonzi.persons",
    }


def test_simple_ponzi_taint_edges_are_tail_tainted():
    t, h = _taint("simple_ponzi")
    assert len(t.taint_edges) == 12
    for a, b in t.taint_edges:
        assert a in t.tainted and b in t.tainted
    untraversed = set(h.all_edges()) - set(t.taint_edges)
    for a, _b in untraversed:
        assert a not in t.tainted


def test_constructor_sender_taints_owner():
    t, h = _taint("gated")
    assert _paths(t.tainted) == {
        "Gated.@ctor.msg.sender",
        "Gated.join.msg.value",
        "Gated.owner",
        "Gated.pot",
        "Gated.sweep.msg.sender",
    }
    assert _state_paths(t, h) == {"Gated.owner", "Gated.pot"}


def test_call_taints_callee_hypernode_not_its_locals():
    t, _ = _taint("caller")
    assert _paths(t.tainted) == {"Caller.stash", "Caller.take.msg.value"}
    assert GraphId(("Caller", "stash")) in t.tainted
    # Argument binding stops at the hypernode; stash locals stay clean.
    assert NodeId(("Caller", "stash", "v")) not in t.tainted
    assert NodeId(("Caller", "vault")) not in t.tainted


def test_inheritance_taint_crosses_contracts():
    t, h = _taint("inherit")
    assert _paths(t.tainted) == {
        "Base.put.msg.value",
        "Base.reserve",
        "Child.@external",
        "Child.drain.take",
    }
    assert _state_paths(t, h) == {"Base.reserve"}


def test_unrelated_functions_stay_clean():
    t, _ = _taint("pool")
    assert _paths(t.tainted) == {
        "Pool.@external",
        "Pool.deposit.msg.sender",
        "Pool.deposit.msg.value",
        "Pool.poolSize",
    }
    assert NodeId(("Pool", "keeper")) not in t.tainted


def test_this_call_and_modifier_scopes_steer_taint():
    t, h = _taint("relay")
    # this.f(msg.value) is a direct call of Relay.f.
    assert GraphId(("Relay", "f")) in t.tainted
    # fee's `pot = f` reads its own local f, set from msg.value; track's
    # `seen = pot` reads the untainted state pot, not join's local.
    assert _state_paths(t, h) == {"Bound.total", "Fee.pot"}
    assert NodeId(("Track", "seen")) not in t.tainted


def test_no_sources_means_nothing_tainted():
    u = fixutil.load_unit("hollow")
    models = lower(u)
    h = build(models)
    t = tpa(h, default_sources(h))
    assert t.tainted == frozenset()
    assert t.taint_edges == frozenset()


def test_unregistered_sources_are_refused():
    u = fixutil.load_unit("pool")
    h = build(lower(u))
    assert h.number(NodeId(("Pool", "nope", "msg.value"))) is None
    # -1 would otherwise index the adjacency from its end.
    for unregistered in (len(h.view().paths), -1):
        with pytest.raises(ValueError, match="not registered"):
            tpa(h, default_sources(h) | {unregistered})


def test_matches_naive_closure_on_random_graphs():
    rng = random.Random(1402)
    for _ in range(200):
        h, edges, _nodes, sources = oracles.random_hypergraph(rng)
        want_t, want_e = oracles.closure_taint(edges, sources)
        got = tpa(h, oracles.numbers(h, sources))
        assert set(got.tainted) == want_t
        assert set(got.taint_edges) == want_e


def test_result_independent_of_edge_insertion_order():
    rng = random.Random(77)
    for _ in range(50):
        h, edges, _nodes, sources = oracles.random_hypergraph(rng)
        first = tpa(h, oracles.numbers(h, sources))
        shuffled = oracles.rebuild_shuffled(h, edges, rng)
        second = tpa(shuffled, oracles.numbers(shuffled, sources))
        assert first.tainted == second.tainted
        assert first.taint_edges == second.taint_edges


def _scanned_sources(h) -> frozenset[int]:
    """The number of every node of the graph named msg.sender or msg.value,
    by a scan."""
    return oracles.numbers(h, (n for n in h.nodes() if n.path[-1] in ("msg.sender", "msg.value")))


def test_default_sources_are_the_nodes_registered_with_a_source_name():
    graphs = [_taint(name)[1] for name in fixutil.FIXTURE_NAMES]
    rng = random.Random(4242)
    for _ in range(60):
        models, _source = oracles.random_models(rng)
        graphs.append(build(models))
    assert any(default_sources(h) for h in graphs)
    for h in graphs:
        assert default_sources(h) == _scanned_sources(h)
    # A node registered later is recorded too, and registering it again
    # changes nothing.
    h = graphs[0]
    late = h.add_node(NodeId(("Caller", "take", "msg.sender")))
    sources = default_sources(h)
    h.add_node(NodeId(("Caller", "take", "msg.sender")))
    assert h.number(late) in sources == default_sources(h) == _scanned_sources(h)
