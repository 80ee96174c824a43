"""Deterministic DOT output for taint subgraphs.

One rendered node per tainted endpoint; node ids are full dotted paths so
they stay unique across contracts and functions, while labels drop the
contract prefix for in-function variables to keep the picture readable.
Source nodes (the graph's `sources`) render as diamonds, function
hypernodes as box3d. Output is a
pure function of the taint result: lines are sorted, so two runs over the
same input are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Endpoint, GraphId, HypernodeGraph, NodeId, endpoint_key
from .taint import TaintSubgraph


@dataclass(frozen=True)
class RenderOptions:
    """cluster=True groups function-local nodes into per-function clusters."""

    cluster: bool = False


@dataclass(frozen=True)
class DotDocument:
    text: str
    node_count: int
    edge_count: int


def _dot_id(ep: Endpoint) -> str:
    return ".".join(ep.path)


def _label(ep: Endpoint) -> str:
    if isinstance(ep, GraphId):
        return ".".join(ep.path[1:]) or _dot_id(ep)
    if len(ep.path) >= 3:
        return ".".join(ep.path[1:])
    return _dot_id(ep)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_line(ep: Endpoint, is_source: bool, indent: str) -> str:
    attrs = [f'label="{_escape(_label(ep))}"']
    if is_source:
        attrs.append("shape=diamond")
    elif isinstance(ep, GraphId):
        attrs.append("shape=box3d")
    return f'{indent}"{_escape(_dot_id(ep))}" [{" ".join(attrs)}];'


def to_dot(
    t: TaintSubgraph, h: HypernodeGraph, opts: RenderOptions | None = None
) -> DotDocument:
    """Render the tainted subgraph as a DOT digraph named `taint`."""
    opts = opts or RenderOptions()
    endpoints = sorted(t.tainted, key=endpoint_key)
    sources = h.sources

    lines = ["digraph taint {"]
    if opts.cluster:
        grouped: dict[tuple[str, str], list[Endpoint]] = {}
        top: list[Endpoint] = []
        for ep in endpoints:
            if isinstance(ep, NodeId) and len(ep.path) >= 3:
                grouped.setdefault((ep.path[0], ep.path[1]), []).append(ep)
            else:
                top.append(ep)
        for ep in top:
            lines.append(_node_line(ep, ep in sources, "  "))
        for (contract, fname), members in sorted(grouped.items()):
            lines.append(f'  subgraph "cluster_{_escape(contract)}_{_escape(fname)}" {{')
            lines.append(f'    label="{_escape(contract)}.{_escape(fname)}";')
            for ep in members:
                lines.append(_node_line(ep, ep in sources, "    "))
            lines.append("  }")
    else:
        for ep in endpoints:
            lines.append(_node_line(ep, ep in sources, "  "))

    edge_lines = sorted(
        f'  "{_escape(_dot_id(a))}" -> "{_escape(_dot_id(b))}";'
        for a, b in t.taint_edges
    )
    seen: set[str] = set()
    for line in edge_lines:
        if line not in seen:
            seen.add(line)
            lines.append(line)
    lines.append("}")
    return DotDocument(
        text="\n".join(lines) + "\n",
        node_count=len(endpoints),
        edge_count=len(seen),
    )
