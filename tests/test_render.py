"""DOT rendering: structure, determinism, and an independent parse."""

from __future__ import annotations

import dotcheck
import fixutil
import pytest
from ponzilens.hypergraph import HypernodeGraph, NodeId, build
from ponzilens.model import lower
from ponzilens.render import RenderOptions, to_dot
from ponzilens.taint import default_sources, tpa


def _render(name: str, cluster: bool = False):
    u = fixutil.load_unit(name)
    models = lower(u)
    h = build(models)
    t = tpa(h, default_sources(h))
    return to_dot(t, h, RenderOptions(cluster=cluster)), t, h


def test_digraph_shape_and_counts():
    doc, t, _h = _render("simple_ponzi")
    g = dotcheck.parse_dot(doc.text)
    assert g.name == "taint"
    assert doc.node_count == len(g.nodes) == len(t.tainted) == 8
    assert doc.edge_count == len(g.edges) == 12


def test_parsed_edges_match_taint_edges_exactly():
    for name in ("simple_ponzi", "caller", "inherit", "gated"):
        doc, t, _h = _render(name)
        g = dotcheck.parse_dot(doc.text)
        want = {(str(a), str(b)) for a, b in t.taint_edges}
        assert set(g.edges) == want
        assert len(g.edges) == len(want)
        assert set(g.nodes) == {str(ep) for ep in t.tainted}


def test_sources_are_diamonds():
    doc, _t, _h = _render("simple_ponzi")
    g = dotcheck.parse_dot(doc.text)
    diamonds = {k for k, attrs in g.nodes.items() if attrs.get("shape") == "diamond"}
    assert diamonds == {
        "SimplePonzi.enter.msg.sender",
        "SimplePonzi.enter.msg.value",
    }


def test_hypernodes_are_box3d():
    doc, _t, _h = _render("caller")
    g = dotcheck.parse_dot(doc.text)
    assert g.nodes["Caller.stash"].get("shape") == "box3d"
    assert g.nodes["Caller.take.msg.value"]["shape"] == "diamond"


def test_labels_drop_contract_prefix_for_function_locals():
    doc, _t, _h = _render("simple_ponzi")
    g = dotcheck.parse_dot(doc.text)
    assert g.nodes["SimplePonzi.enter.amount"]["label"] == "enter.amount"
    assert g.nodes["SimplePonzi.balance"]["label"] == "SimplePonzi.balance"


def test_output_is_byte_deterministic():
    first, _, _ = _render("simple_ponzi")
    second, _, _ = _render("simple_ponzi")
    assert first.text == second.text
    clustered1, _, _ = _render("simple_ponzi", cluster=True)
    clustered2, _, _ = _render("simple_ponzi", cluster=True)
    assert clustered1.text == clustered2.text


def test_cluster_mode_groups_function_locals():
    doc, t, _h = _render("simple_ponzi", cluster=True)
    g = dotcheck.parse_dot(doc.text)
    assert set(g.clusters) == {"cluster_SimplePonzi_enter"}
    assert g.cluster_labels == {"cluster_SimplePonzi_enter": "SimplePonzi.enter"}
    members = set(g.clusters["cluster_SimplePonzi_enter"])
    assert members == {
        "SimplePonzi.enter.amount",
        "SimplePonzi.enter.idx",
        "SimplePonzi.enter.msg.sender",
        "SimplePonzi.enter.msg.value",
        "SimplePonzi.enter.transactionAmount",
    }
    # Same taint content regardless of clustering.
    assert set(g.edges) == {(str(a), str(b)) for a, b in t.taint_edges}
    assert set(g.nodes) == {str(ep) for ep in t.tainted}


def test_cluster_mode_keeps_contract_nodes_at_top_level():
    doc, _t, _h = _render("simple_ponzi", cluster=True)
    g = dotcheck.parse_dot(doc.text)
    clustered = {m for ms in g.clusters.values() for m in ms}
    assert "SimplePonzi.balance" in set(g.nodes) - clustered
    assert "SimplePonzi.persons" in set(g.nodes) - clustered


def test_empty_taint_renders_empty_digraph():
    doc, t, _h = _render("hollow")
    assert t.tainted == frozenset()
    assert doc.text == "digraph taint {\n}\n"
    g = dotcheck.parse_dot(doc.text)
    assert not g.nodes and not g.edges
    assert doc.node_count == doc.edge_count == 0


def test_quotes_and_backslashes_round_trip():
    h = HypernodeGraph()
    a = NodeId(('says "hi"',))
    b = NodeId(("back\\slash",))
    h.add_node(a)
    h.add_node(b)
    h.add_edge(a, b)
    t = tpa(h, {a})
    assert t.tainted == {a, b} and t.taint_edges == {(a, b)}
    doc = to_dot(t, h)
    g = dotcheck.parse_dot(doc.text)
    assert set(g.edges) == {('says "hi"', "back\\slash")}
    assert set(g.nodes) == {'says "hi"', "back\\slash"}


def test_malformed_dot_is_rejected_by_checker():
    with pytest.raises(dotcheck.DotSyntaxError):
        dotcheck.parse_dot('digraph taint { "a" -> ; }')
    with pytest.raises(dotcheck.DotSyntaxError):
        dotcheck.parse_dot("digraph taint {")
    with pytest.raises(dotcheck.DotSyntaxError):
        dotcheck.parse_dot('graph taint { "a"; }')
    with pytest.raises(dotcheck.DotSyntaxError):
        dotcheck.parse_dot('digraph taint { "a"; } trailing')
