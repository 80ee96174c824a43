"""Regenerate tests/fixtures/ from the builders in programs.py.

Usage: PYTHONPATH=src python3 tests/gen_fixtures.py [--pin [--check]]

With --pin it writes only tests/fixtures/golden/units.sha256.json instead:
per unit `pinned_units` yields, the sha256 of its `--dump-ir` document, of
its `--dump-graph` document and of its full-mode analysis prompt (slice,
header and DOT), so a change to lowering, the graph, slicing or rendering
names the units it touches. With --pin --check it writes nothing, prints
the units whose digests differ from the file, and exits 1 when any do.
"""

from __future__ import annotations

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


def unit_digests() -> dict[str, dict[str, str]]:
    """Per unit, the sha256 of its IR, its graph document and its full-mode
    analysis prompt. A fuzz document that does not lower has no entry; a
    unit whose slice is empty, so that no prompt can be built, has no
    prompt digest."""
    templates = TemplateSet()
    digests = {}
    for name, doc in pinned_units():
        try:
            art = run_static_pipeline(load_ast(doc), MODE_FULL)
        except PonzilensError:
            continue
        texts = {"ir": ir_document(art.models), "graph": graph_document(art.graph, art.taint)}
        try:
            prompt = build_analysis_prompt(art.bundle, art.dot, MODE_FULL, templates)
            texts["prompt"] = prompt.rendered
        except PonzilensError:
            pass
        digests[name] = {kind: hashlib.sha256(t.encode()).hexdigest() for kind, t in texts.items()}
    return digests


def changed_units(want: dict, got: dict) -> list[str]:
    """The units whose digests differ between two pin documents, or that
    only one of them has."""
    return sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--pin" in args:
        got = unit_digests()
        if "--check" in args:
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
