"""Function-level slicing driven by the taint result.

A function is selected when it defines or uses any tainted variable node, or
when its own hypernode is tainted (tainted data crossed its call boundary).
Constructors are additionally kept, by default, whenever taint reaches any
state variable visible to their contract: initialization logic frames how
the tainted state is used even when the constructor itself never touches a
tainted name.

Slices are whole functions, taken verbatim from the source span, combined in
source order and separated by blank lines. Contract-level declarations
(state variables, events) referenced by the selected functions are collected
into a header block that prompt builders may prepend; the combined slice
itself stays exactly the joined function texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NoSpan
from .hypergraph import GraphId, HypernodeGraph, NodeId, function_node_id
from .model import CTOR_NAME, ContractModel, FunctionModel, Names, Scope, function_refs
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
    """Qualified names of taint-adjacent functions, in source order."""
    names = Names(models)
    tainted_vars = {ep for ep in t.tainted if isinstance(ep, NodeId)}
    tainted_owners = {s.path[0] for s in tainted_state_vars(t, h)}

    selected: list[str] = []
    for m, f in _ordered_functions(models):
        nodes = {function_node_id(names, m.name, f.name, ref) for ref in function_refs(f)}
        keep = bool(nodes & tainted_vars) or GraphId((m.name, f.name)) in t.tainted
        if not keep and include_constructors and f.name == CTOR_NAME:
            keep = not tainted_owners.isdisjoint(names.linearization[m.name])
        if keep:
            selected.append(f.qualified_name)
    return selected


def _header_block(
    selected_pairs: list[tuple[ContractModel, FunctionModel]],
    h: HypernodeGraph,
    models: Sequence[ContractModel],
    slice_texts: dict[str, str],
) -> str:
    """Contract-level declarations the selected functions lean on."""
    names = Names(models)
    decls: list[tuple[tuple[int, int], str]] = []
    seen_spans: set[tuple[int, int]] = set()

    state_refs: set[NodeId] = set()
    for m, f in selected_pairs:
        for ref in function_refs(f):
            if ref.scope == Scope.STATE:
                state_refs.add(function_node_id(names, m.name, f.name, ref))
    for nid in state_refs:
        span = h.span_map.get(nid)
        if span is None or span in seen_spans:
            continue
        seen_spans.add(span)
        decls.append((span, h.source_slice(nid)))

    all_text = "\n".join(slice_texts.values())
    for m in models:
        for ev in m.events:
            if ev.source_span and ev.name and ev.name in all_text:
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

    Duplicate ids are dropped (first occurrence wins). Functions without a
    recorded source span cannot be sliced; they are skipped and listed in
    stats.skipped rather than aborting the bundle.
    """
    ordered: list[str] = []
    seen: set[str] = set()
    for fid in selected:
        if fid not in seen:
            seen.add(fid)
            ordered.append(fid)

    per_function: dict[str, str] = {}
    skipped: list[str] = []
    for fid in ordered:
        contract, _, fname = fid.partition(".")
        gid = GraphId((contract, fname))
        try:
            text = h.source_slice(gid)
        except NoSpan:
            skipped.append(fid)
            continue
        if not text.strip():
            skipped.append(fid)
            continue
        per_function[fid] = text

    combined_text = "\n\n".join(per_function[fid] for fid in ordered if fid in per_function)
    selected_pairs = [
        (m, f)
        for m in models
        for f in m.functions
        if f.qualified_name in per_function
    ]
    header = _header_block(selected_pairs, h, models, per_function)
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
