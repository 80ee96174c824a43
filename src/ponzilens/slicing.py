"""Function-level slicing driven by the taint result.

A function is selected when it defines or uses any tainted variable node, or
when its own hypernode is tainted (tainted data crossed its call boundary).
Constructors are additionally kept, by default, whenever taint reaches any
state variable visible to their contract: initialization logic frames how
the tainted state is used even when the constructor itself never touches a
tainted name.

Which declaration a name denotes is decided once, by `model.lower`; slicing
resolves nothing. It reads registry numbers: each function's hypernode and
the nodes it references from the graph (`HypernodeGraph.function_refs`),
tested against the taint result's numbers (`tainted_numbers`), and each
contract's linearization from its model (`ContractModel.linearization`). No
endpoint set is built, except the tainted state variables when a
constructor is not selected on its own.

Slices are whole functions, taken verbatim from the source span, combined in
source order and separated by blank lines; a selected name with overloads
contributes every overload's text, in source order. Contract-level
declarations the selected functions lean on (the state variables they
reference, the events they invoke) are collected into a header block that
prompt builders may prepend; the combined slice itself stays exactly the
joined function texts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .hypergraph import HypernodeGraph
from .model import CTOR_NAME, ContractModel, FunctionModel
from .taint import TaintSubgraph, tainted_state_vars

HEADER_MARK = "// --- contract context ---"


@dataclass(frozen=True)
class SliceStats:
    functions_total: int
    functions_selected: int
    combined_bytes: int
    skipped: tuple[str, ...] = ()


@dataclass
class SliceBundle:
    """Selected function ids, their texts, and the combined slice."""

    selected: tuple[str, ...]
    combined_text: str
    per_function: dict[str, str]
    header: str
    stats: SliceStats


def _ordered_functions(
    models: Sequence[ContractModel],
) -> list[tuple[ContractModel, FunctionModel]]:
    pairs = [(m, f) for m in models for f in m.functions]
    pairs.sort(key=lambda mf: (mf[1].source_span[0], mf[0].name, mf[1].name))
    return pairs


def select_functions(
    t: TaintSubgraph,
    h: HypernodeGraph,
    models: Sequence[ContractModel],
    *,
    include_constructors: bool = True,
) -> list[str]:
    """Qualified names of taint-adjacent functions, in source order.

    `h` must come from `hypergraph.build` over the same models.
    """
    tainted = t.tainted_numbers(h)
    tainted_owners: set[str] | None = None

    selected: list[str] = []
    for m, f in _ordered_functions(models):
        g, nodes = h.function_refs(m.name, f.name)
        keep = g in tainted or not tainted.isdisjoint(nodes)
        if not keep and include_constructors and f.name == CTOR_NAME:
            if tainted_owners is None:
                tainted_owners = {s.path[0] for s in tainted_state_vars(t, h)}
            keep = not tainted_owners.isdisjoint(m.linearization)
        if keep:
            selected.append(f.qualified_name)
    return selected


def _invokes(text: str, name: str) -> bool:
    """Whether `text` calls `name` as a whole identifier: `emit name(...)`,
    or the bare `name(...)` that Solidity before 0.4.21 used for events. A
    member call `x.name(...)` is not an invocation of the event."""
    return re.search(rf"(?<![\w$.]){re.escape(name)}\s*\(", text) is not None


def _header_block(
    functions: list[tuple[str, str]],
    h: HypernodeGraph,
    models: Sequence[ContractModel],
    slice_texts: dict[str, str],
) -> str:
    """Contract-level declarations the selected functions lean on."""
    decls: list[tuple[tuple[int, int], str]] = []
    seen_spans: set[tuple[int, int]] = set()

    # Contract-level nodes are the two-component paths: state variables.
    eps = h.view().endpoints
    refs = {n for contract, fname in functions for n in h.function_refs(contract, fname)[1]}
    for nid in map(eps.__getitem__, refs):
        if len(nid.path) != 2:
            continue
        span = h.span_map.get(nid)
        if span is None or span in seen_spans:
            continue
        seen_spans.add(span)
        decls.append((span, h.source_slice(nid)))

    all_text = "\n".join(slice_texts.values())
    for m in models:
        for ev in m.events:
            if ev.source_span and ev.name and _invokes(all_text, ev.name):
                if ev.source_span in seen_spans:
                    continue
                seen_spans.add(ev.source_span)
                text = h.source_text[
                    ev.source_span[0] : ev.source_span[0] + ev.source_span[1]
                ]
                if text:
                    decls.append((ev.source_span, text))

    if not decls:
        return ""
    decls.sort(key=lambda item: item[0])
    lines = [HEADER_MARK]
    for _, text in decls:
        line = text.rstrip()
        if not line.endswith(";"):
            line += ";"
        lines.append(line)
    return "\n".join(lines)


def combine_slices(
    selected: Iterable[str],
    h: HypernodeGraph,
    models: Sequence[ContractModel],
) -> SliceBundle:
    """Assemble per-function texts and the combined slice.

    Duplicate ids are dropped (first occurrence wins). An id whose function
    (every overload of it) has no source text in its span, or that names no
    function of the models, cannot be sliced; it is skipped and listed in
    stats.skipped rather than aborting the bundle.
    """
    ordered: list[str] = []
    seen: set[str] = set()
    for fid in selected:
        if fid not in seen:
            seen.add(fid)
            ordered.append(fid)

    # Every overload of a selected name is sliced from its own span.
    spans: dict[str, list[tuple[int, int]]] = {fid: [] for fid in ordered}
    for m in models:
        for f in m.functions:
            found = spans.get(f"{m.name}.{f.name}")
            if found is not None:
                found.append(f.source_span)

    per_function: dict[str, str] = {}
    sliced: list[tuple[str, str]] = []
    skipped: list[str] = []
    for fid in ordered:
        texts = [h.source_text[off : off + n] for off, n in sorted(spans[fid])]
        texts = [text for text in texts if text.strip()]
        if not texts:
            skipped.append(fid)
            continue
        per_function[fid] = "\n\n".join(texts)
        contract, _, fname = fid.partition(".")
        sliced.append((contract, fname))

    combined_text = "\n\n".join(per_function[fid] for fid in ordered if fid in per_function)
    header = _header_block(sliced, h, models, per_function)
    total = sum(len(m.functions) for m in models)
    stats = SliceStats(
        functions_total=total,
        functions_selected=len(ordered),
        combined_bytes=len(combined_text.encode("utf-8")),
        skipped=tuple(skipped),
    )
    return SliceBundle(
        selected=tuple(ordered),
        combined_text=combined_text,
        per_function=per_function,
        header=header,
        stats=stats,
    )
