"""Shared helpers for loading the generated fixture programs."""

from __future__ import annotations

import json
from pathlib import Path

from ponzilens import SourceUnit, load_ast

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "fixtures"

FIXTURE_NAMES = (
    "caller",
    "gated",
    "hollow",
    "inherit",
    "init_rule",
    "legacy",
    "mini_token",
    "multi_base",
    "pool",
    "relay",
    "simple_ponzi",
    "two_contracts",
    "vaulted",
)


def ensure_fixtures() -> None:
    missing = [n for n in FIXTURE_NAMES if not (FIXTURES / f"{n}.json").exists()]
    if missing:
        import gen_fixtures

        gen_fixtures.main([])


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def load_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def load_unit(name: str) -> SourceUnit:
    return load_ast(load_doc(name))
