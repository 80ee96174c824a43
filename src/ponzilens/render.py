"""Deterministic DOT output for taint subgraphs.

One rendered node per tainted endpoint; node ids are full dotted paths so
they stay unique across contracts and functions, while labels drop the
contract prefix for in-function variables to keep the picture readable.
Source nodes (the graph's `sources`) render as diamonds, function
hypernodes as box3d; with `cluster=True`, the nodes inside a function
are grouped into one subgraph per function. Output is a pure function of
the taint result: node lines follow `endpoint_key` order and edge lines are
sorted, so two runs over the same input are byte-identical.

`to_dot` reads the taint result's numbers in the graph's rank order, and its
edge numbers, and each number's path and kind flag from the graph's view: it
makes no endpoint ids. Each endpoint's quoted id is escaped once, for its
node line and its edge lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import HypernodeGraph
from .taint import TaintSubgraph


@dataclass(frozen=True)
class DotDocument:
    text: str
    node_count: int
    edge_count: int


def _label(path: tuple[str, ...], graph: int) -> str:
    """The path without its contract for a function hypernode or an
    in-function node; the whole path otherwise."""
    return ".".join(path[1:] if len(path) > (1 if graph else 2) else path)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(t: TaintSubgraph, h: HypernodeGraph, *, cluster: bool = False) -> DotDocument:
    """Render the tainted subgraph as a DOT digraph named `taint`;
    `cluster` groups function-local nodes into per-function clusters."""
    view = h.view()
    paths, graph = view.paths, view.graph
    numbers = sorted(t.numbers, key=view.rank.__getitem__)
    # Each endpoint's quoted id is escaped once, for its node and its edges.
    dot_id = {n: _escape(".".join(paths[n])) for n in numbers}
    sources = h.sources

    def node_line(n: int, indent: str) -> str:
        shape = " shape=diamond" if n in sources else " shape=box3d" if graph[n] else ""
        return f'{indent}"{dot_id[n]}" [label="{_escape(_label(paths[n], graph[n]))}"{shape}];'

    lines = ["digraph taint {"]
    if cluster:
        grouped: dict[tuple[str, ...], list[int]] = {}
        top: list[int] = []
        for n in numbers:
            if not graph[n] and len(paths[n]) >= 3:
                grouped.setdefault(paths[n][:2], []).append(n)
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
