"""`finalize`'s endpoint order is `endpoint_key` order, on random paths."""

from __future__ import annotations

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ponzilens.hypergraph import GraphId, HypernodeGraph, NodeId, endpoint_key  # noqa: E402
from ponzilens.render import RenderOptions, to_dot  # noqa: E402
from ponzilens.taint import tpa  # noqa: E402

# Shared prefixes ("a" and "ab", ("a",) and ("a", "b")), a dot inside a
# component, an empty component, and characters that sort below the dot.
_COMPONENT = st.one_of(
    st.sampled_from(["a", "ab", "b", "msg.sender", "msg", "sender", ""]),
    st.text(alphabet="ab.\x00 !", max_size=3),
)
_PATHS = st.lists(
    st.tuples(st.lists(_COMPONENT, min_size=1, max_size=4).map(tuple), st.sampled_from("ngb")),
    min_size=1,
    max_size=40,
)


def _graph(paths: list[tuple[tuple[str, ...], str]]) -> HypernodeGraph:
    """Each path as a node ("n"), a graph ("g") or both ("b"), registered in
    the drawn order after the graphs of its prefixes."""
    h = HypernodeGraph()
    for path, kind in paths:
        for k in range(1, len(path)):
            h.add_graph(GraphId(path[:k]))
        if kind in "gb":
            h.add_graph(GraphId(path))
        if kind in "nb":
            h.add_node(NodeId(path))
    return h


@settings(max_examples=300, deadline=None)
@given(_PATHS)
def test_finalize_order_is_endpoint_key_order(paths):
    h = _graph(paths)
    view = h.view()
    everything = list(view.endpoints)
    want = sorted(everything, key=endpoint_key)
    assert [view.endpoints[n] for n in view.order] == want
    assert [view.order[r] for r in sorted(view.rank)] == view.order
    assert list(h.nodes()) == [ep for ep in want if isinstance(ep, NodeId)]
    assert list(h.graphs()) == [ep for ep in want if isinstance(ep, GraphId)]
    for gid in h.graphs():
        assert list(h.members(gid)) == [ep for ep in want if ep.path[:-1] == gid.path and ep.path]

    # Every endpoint but the root tainted, each as its own source, on a graph
    # without edges: the DOT node lines, flat and clustered, follow the same
    # order.
    tainted = frozenset(everything[1:])
    t = tpa(h, tainted)
    assert t.tainted == tainted and t.taint_edges == frozenset()
    flat = to_dot(t, h).text
    ids = re.findall(r'^  "(.*)" \[label=', flat, re.M)
    assert ids == [".".join(ep.path) for ep in want if ep in tainted]
    clustered = to_dot(t, h, RenderOptions(cluster=True)).text
    top = re.findall(r'^  "(.*)" \[label=', clustered, re.M)
    assert top == [
        ".".join(ep.path)
        for ep in want
        if ep in tainted and not (isinstance(ep, NodeId) and len(ep.path) >= 3)
    ]
