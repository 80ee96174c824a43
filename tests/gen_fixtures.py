"""Regenerate tests/fixtures/ from the builders in programs.py.

Usage: PYTHONPATH=src python3 tests/gen_fixtures.py [--pin]

With --pin it writes only tests/fixtures/golden/units.sha256.json instead:
the sha256 of the `--dump-ir` and the `--dump-graph` document of every unit
`pinned_units` yields, so a change to lowering or to the graph names the
units it touches.
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
from ponzilens.errors import PonzilensError  # noqa: E402
from ponzilens.hypergraph import build  # noqa: E402
from ponzilens.ingest import load_ast  # noqa: E402
from ponzilens.model import lower  # noqa: E402
from ponzilens.taint import default_sources, tpa  # noqa: E402

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
    """Per unit, the sha256 of its IR and of its graph document; a fuzz
    document that does not lower has no entry."""
    digests = {}
    for name, doc in pinned_units():
        try:
            unit = load_ast(doc)
            models = lower(unit)
        except PonzilensError:
            continue
        h = build(models, unit.source_text)
        texts = {"ir": ir_document(models), "graph": graph_document(h, tpa(h, default_sources(h)))}
        digests[name] = {kind: hashlib.sha256(t.encode()).hexdigest() for kind, t in texts.items()}
    return digests


def main(argv: list[str] | None = None) -> None:
    if "--pin" in (sys.argv[1:] if argv is None else argv):
        PIN.write_text(json.dumps(unit_digests(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {PIN.name}")
        return
    FIXTURES.mkdir(exist_ok=True)
    for name, make in sorted(REGISTRY.items()):
        source, doc = make()
        (FIXTURES / f"{name}.sol").write_text(source)
        (FIXTURES / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {name}.sol ({len(source)} bytes) and {name}.json")


if __name__ == "__main__":
    main()
