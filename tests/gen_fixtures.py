"""Regenerate tests/fixtures/ from the builders in programs.py.

Usage: PYTHONPATH=src python3 tests/gen_fixtures.py [--pin [--check] | --show UNIT]

With --pin it writes only tests/fixtures/golden/units.sha256.json instead:
per unit `pinned_units` yields, the sha256 of its `--dump-ir` document, of
its `--dump-graph` document and of its full-mode analysis prompt (slice,
header and DOT), so a change to lowering, the graph, slicing or rendering
names the units it touches. With --pin --check it writes nothing, prints
each unit whose digests differ from the file with the digests that differ,
and exits 1 when any do. With --show UNIT it writes nothing and prints the
three texts one pinned unit is hashed by, each under a `=== kind ===` line,
so a changed digest can be diffed between two checkouts. Any other
argument, or --check without --pin, is a usage error: it exits 2 and writes
nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import astfuzz  # noqa: E402
from programs import REGISTRY, pay_help_unit, random_unit  # noqa: E402

from ponzilens.cli import graph_document, ir_document  # noqa: E402
from ponzilens.detect import (  # noqa: E402
    MODE_FULL,
    TemplateSet,
    build_analysis_prompt,
    run_static_pipeline,
)
from ponzilens.errors import PonzilensError  # noqa: E402
from ponzilens.ingest import load_ast  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PIN = FIXTURES / "golden" / "units.sha256.json"


def pinned_units():
    """(name, AST document) of `random_unit` seeds 0-299, `pay_help_unit(300)`
    and `astfuzz` seeds 0-299."""
    for seed in range(300):
        yield f"random_{seed:03d}", random_unit(random.Random(seed), f"r{seed}", seed % 2 == 0)[1]
    yield "pay_help_300", pay_help_unit(300)[1]
    for seed in range(300):
        yield f"fuzz_{seed:03d}", astfuzz.unit(seed)


def unit_texts(doc: dict, templates: TemplateSet) -> dict[str, str]:
    """A unit's IR, graph document and full-mode analysis prompt, by kind.
    Empty when the document does not lower; without a prompt when the slice
    is empty, so that no prompt can be built."""
    try:
        art = run_static_pipeline(load_ast(doc), MODE_FULL)
    except PonzilensError:
        return {}
    texts = {"ir": ir_document(art.models), "graph": graph_document(art.graph, art.taint)}
    try:
        texts["prompt"] = build_analysis_prompt(art.bundle, art.dot, MODE_FULL, templates).rendered
    except PonzilensError:
        pass
    return texts


def unit_digests() -> dict[str, dict[str, str]]:
    """Per unit, the sha256 of each of its `unit_texts`; a unit with none
    has no entry."""
    templates = TemplateSet()
    digests = {}
    for name, doc in pinned_units():
        texts = unit_texts(doc, templates)
        if texts:
            digests[name] = {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()}
    return digests


def show(name: str) -> int:
    """Print the texts of the pinned unit `name`; 1 when it does not
    lower, 2 when no pinned unit has that name."""
    doc = next((d for n, d in pinned_units() if n == name), None)
    if doc is None:
        print(f"no pinned unit {name!r}", file=sys.stderr)
        return 2
    texts = unit_texts(doc, TemplateSet())
    if not texts:
        print(f"{name} does not lower", file=sys.stderr)
        return 1
    for kind, text in texts.items():
        print(f"=== {kind} ===")
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def changed_units(want: dict, got: dict) -> list[str]:
    """`unit: kinds` for each unit whose digests differ between two pin
    documents, naming the digests (`ir`, `graph`, `prompt`) that differ; a
    digest or a unit only one of them has differs."""
    changed = []
    for name in sorted(want.keys() | got.keys()):
        a, b = want.get(name, {}), got.get(name, {})
        kinds = [kind for kind in ("ir", "graph", "prompt") if a.get(kind) != b.get(kind)]
        if kinds:
            changed.append(f"{name}: {', '.join(kinds)}")
    return changed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = ap.add_mutually_exclusive_group()
    what.add_argument("--pin", action="store_true", help="write the per-unit digests instead")
    what.add_argument("--show", metavar="UNIT", help="print the texts one pinned unit is hashed by")
    ap.add_argument("--check", action="store_true", help="with --pin: compare, write nothing")
    args = ap.parse_args(argv)
    if args.check and not args.pin:
        ap.error("--check needs --pin")
    if args.show is not None:
        return show(args.show)
    if args.pin:
        got = unit_digests()
        if args.check:
            changed = changed_units(json.loads(PIN.read_text()), got)
            print("\n".join(changed) if changed else f"{PIN.name}: all {len(got)} units match")
            return 1 if changed else 0
        PIN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PIN.name}")
        return 0
    FIXTURES.mkdir(exist_ok=True)
    for name, make in sorted(REGISTRY.items()):
        source, doc = make()
        (FIXTURES / f"{name}.sol").write_text(source)
        (FIXTURES / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {name}.sol ({len(source)} bytes) and {name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
