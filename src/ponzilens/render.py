"""Deterministic DOT output for taint subgraphs.

One rendered node per tainted endpoint; node ids are full dotted paths so
they stay unique across contracts and functions, while labels drop the
contract prefix for in-function variables to keep the picture readable.
Source nodes (the graph's `sources`) render as diamonds, function
hypernodes as box3d. Output is a pure function of the taint result: node
lines follow `endpoint_key` order and edge lines are sorted, so two runs
over the same input are byte-identical.

`to_dot` reads the taint result's numbers in the graph's rank order, and its
edge numbers. Each endpoint's quoted id is escaped once, for its node line
and its edge lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Endpoint, GraphId, HypernodeGraph, NodeId
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


def _label(ep: Endpoint) -> str:
    if isinstance(ep, GraphId):
        return ".".join(ep.path[1:]) or ".".join(ep.path)
    if len(ep.path) >= 3:
        return ".".join(ep.path[1:])
    return ".".join(ep.path)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(
    t: TaintSubgraph, h: HypernodeGraph, opts: RenderOptions | None = None
) -> DotDocument:
    """Render the tainted subgraph as a DOT digraph named `taint`."""
    opts = opts or RenderOptions()
    view = h.view()
    eps = view.endpoints
    numbers = sorted(t.numbers, key=view.rank.__getitem__)
    # Each endpoint's quoted id is escaped once, for its node and its edges.
    dot_id = {n: _escape(".".join(eps[n].path)) for n in numbers}
    sources = h.sources

    def node_line(n: int, indent: str) -> str:
        ep = eps[n]
        if ep in sources:
            shape = " shape=diamond"
        else:
            shape = " shape=box3d" if isinstance(ep, GraphId) else ""
        return f'{indent}"{dot_id[n]}" [label="{_escape(_label(ep))}"{shape}];'

    lines = ["digraph taint {"]
    if opts.cluster:
        grouped: dict[tuple[str, str], list[int]] = {}
        top: list[int] = []
        for n in numbers:
            ep = eps[n]
            if isinstance(ep, NodeId) and len(ep.path) >= 3:
                grouped.setdefault((ep.path[0], ep.path[1]), []).append(n)
            else:
                top.append(n)
        lines += [node_line(n, "  ") for n in top]
        for (contract, fname), members in sorted(grouped.items()):
            lines.append(f'  subgraph "cluster_{_escape(contract)}_{_escape(fname)}" {{')
            lines.append(f'    label="{_escape(contract)}.{_escape(fname)}";')
            lines += [node_line(n, "    ") for n in members]
            lines.append("  }")
    else:
        lines += [node_line(n, "  ") for n in numbers]

    # Distinct endpoints can share an id (a node and a graph on one path),
    # so edge lines are deduplicated as text.
    edge_lines = sorted(
        {f'  "{dot_id[a]}" -> "{dot_id[b]}";' for a, b in t.edge_numbers()}
    )
    lines.extend(edge_lines)
    lines.append("}")
    return DotDocument(
        text="\n".join(lines) + "\n",
        node_count=len(numbers),
        edge_count=len(edge_lines),
    )
