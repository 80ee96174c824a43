"""The checked-in fixture corpus stays in sync with its generators."""

from __future__ import annotations

import json

import pytest

import fixutil
import gen_fixtures
from astgen import check_spans
from programs import REGISTRY


def test_registry_matches_fixture_list():
    assert tuple(sorted(REGISTRY)) == fixutil.FIXTURE_NAMES


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_generated_bytes_match_checked_in(name):
    source, doc = REGISTRY[name]()
    sol = fixutil.FIXTURES / f"{name}.sol"
    js = fixutil.FIXTURES / f"{name}.json"
    assert sol.read_text() == source
    assert js.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fixture_spans_match_source(name):
    source, doc = REGISTRY[name]()
    assert check_spans(source, doc) == []


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fixture_loads_as_source_unit(name):
    unit = fixutil.load_unit(name)
    assert unit.id == name
    assert unit.ast_json is not None
    assert unit.source_text


def test_lowered_ir_and_graph_match_the_per_unit_pin():
    # Each unit's `--dump-ir` and `--dump-graph` document and its full-mode
    # analysis prompt are hashed on their own, so a failure names the units
    # whose IR, graph, slice or DOT changed.
    want = json.loads(gen_fixtures.PIN.read_text())
    assert gen_fixtures.changed_units(want, gen_fixtures.unit_digests()) == []
