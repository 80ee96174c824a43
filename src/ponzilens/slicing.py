"""Function-level slicing driven by the taint result.

A function is selected when it defines or uses any tainted variable node, or
when its own hypernode is tainted (tainted data crossed its call boundary).
Constructors are additionally kept, by default, whenever taint reaches any
state variable visible to their contract: initialization logic frames how
the tainted state is used even when the constructor itself never touches a
tainted name.

Which declaration a name denotes is decided once, by `model.lower`; slicing
resolves nothing. It tests each function's numbers
(`HypernodeGraph.function_refs`) against the taint result's `numbers`, and
for the constructor rule reads the owners of the tainted state numbers from
the graph's paths and each contract's `ContractModel.linearization`.

Assembly is text only, from the models: slices are whole functions, taken
verbatim from each `FunctionModel.source_span` in the source text, and
joined in selection order with blank lines between them; a selected name
with overloads contributes every overload's text, in source order. The
header comes from lowering's tables: the state variables in the sliced
functions' `decls` and the events in their `emits`, one line per
declaration in source order, which prompt builders may prepend; the
combined slice itself stays exactly the joined function texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .hypergraph import HypernodeGraph
from .model import CTOR_NAME, ContractModel, FunctionModel, Scope
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
    tainted = t.numbers
    tainted_owners: set[str] | None = None

    selected: list[str] = []
    for m, f in _ordered_functions(models):
        g, nodes = h.function_refs(m.name, f.name)
        keep = g in tainted or not tainted.isdisjoint(nodes)
        if not keep and include_constructors and f.name == CTOR_NAME:
            if tainted_owners is None:
                paths = h.view().paths
                tainted_owners = {paths[n][0] for n in tainted_state_vars(t)}
            keep = not tainted_owners.isdisjoint(m.linearization)
        if keep:
            selected.append(f.qualified_name)
    return selected


def _header_block(functions: Sequence[FunctionModel], source_text: str) -> str:
    """Contract-level declarations the sliced functions lean on: the state
    variables in their tables and the events they emit, once each, in
    source order. A declaration with no text in its span adds no line."""
    spans = {d.source_span for f in functions for d in f.decls if d.scope is Scope.STATE}
    spans.update(ev.source_span for f in functions for ev in f.emits)
    lines = [HEADER_MARK]
    for off, n in sorted(spans):
        text = source_text[off : off + n].rstrip()
        if text:
            lines.append(text if text.endswith(";") else text + ";")
    return "\n".join(lines) if len(lines) > 1 else ""


def combine_slices(
    selected: Iterable[str],
    models: Sequence[ContractModel],
    source_text: str,
) -> SliceBundle:
    """Assemble per-function texts and the combined slice from the models'
    spans into `source_text`.

    Duplicate ids are dropped (first occurrence wins). An id whose function
    (every overload of it) has no source text in its span, or that names no
    function of the models, cannot be sliced; it is skipped and listed in
    stats.skipped rather than aborting the bundle.
    """
    ordered = list(dict.fromkeys(selected))

    # Every overload of a selected name is sliced from its own span.
    overloads: dict[str, list[FunctionModel]] = {fid: [] for fid in ordered}
    for m in models:
        for f in m.functions:
            found = overloads.get(f"{m.name}.{f.name}")
            if found is not None:
                found.append(f)

    per_function: dict[str, str] = {}
    sliced: list[FunctionModel] = []
    skipped: list[str] = []
    for fid in ordered:
        spans = sorted(f.source_span for f in overloads[fid])
        texts = [source_text[off : off + n] for off, n in spans]
        texts = [text for text in texts if text.strip()]
        if not texts:
            skipped.append(fid)
            continue
        per_function[fid] = "\n\n".join(texts)
        sliced += overloads[fid]

    combined_text = "\n\n".join(per_function.values())
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
        header=_header_block(sliced, source_text),
        stats=stats,
    )
