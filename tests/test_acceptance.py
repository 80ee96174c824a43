"""Acceptance gate: one test per shipping criterion, at stated tolerance.

Each criterion is a single test so the -v listing shows exactly one
pass/fail line per criterion. Timing budgets are asserted inside the tests
themselves.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

import dotcheck
import fixutil
import oracles
import programs
from ponzilens.detect import (
    DetectionReport,
    LlmConfig,
    MODE_FULL,
    MODE_NO_TAINT,
    MODE_RAW,
    RunRecord,
    build_analysis_prompt,
    detect_contract,
    run_static_pipeline,
)
from ponzilens.evaluation import (
    aggregate_overhead,
    balanced_accuracy,
    compute_metrics,
    load_manifest,
    run_batch,
)
from ponzilens.hypergraph import build
from ponzilens.ingest import load_ast
from ponzilens.model import lower
from ponzilens.render import RenderOptions, to_dot
from ponzilens.slicing import SliceBundle, combine_slices, select_functions
from ponzilens.taint import default_sources, tpa

# Published per-row rates as (TPR, TNR, BAC), all in percent.
_TABLE_1 = [
    (96.40, 95.71, 96.06),
    (79.14, 86.02, 82.58),
    (95.68, 92.14, 93.91),
    (95.68, 92.86, 94.27),
]
_TABLE_2 = [
    (96.40, 95.71, 96.06),
    (71.94, 99.24, 85.59),
    (96.40, 99.62, 98.01),
    (73.63, 95.65, 84.64),
    (69.07, 92.12, 80.59),
    (86.67, 98.40, 92.54),
    (84.91, 98.25, 91.58),
    (81.05, 97.71, 89.39),
]
_TABLE_3 = [
    (94.24, 94.29, 94.27),
    (100.00, 15.63, 57.82),
    (97.12, 60.71, 78.92),
    (93.53, 79.29, 86.41),
]
_TABLE_4 = [
    (90.65, 96.43, 93.54),
    (100.00, 13.49, 56.75),
    (100.00, 57.22, 78.61),
    (92.09, 89.29, 90.69),
]

# 0.01 percentage points; the epsilon absorbs binary float representation
# of decimal inputs (one row lands exactly on the boundary).
_BAC_TOL = 0.01 + 1e-9


def test_c1_metric_arithmetic_reproduces_published_bac():
    rows = _TABLE_1 + _TABLE_2 + _TABLE_3 + _TABLE_4
    assert len(rows) == 20
    worst = 0.0
    for tpr, tnr, published in rows:
        got = balanced_accuracy(tpr, tnr)
        worst = max(worst, abs(got - published))
        assert abs(got - published) <= _BAC_TOL, (tpr, tnr, published, got)
    print(f"PASS c1: 20/20 published BAC rows within 0.01pp (worst {worst:.6f}pp)")


def test_c2_taint_matches_bruteforce_oracle_on_1000_graphs():
    rng = random.Random(424242)
    started = time.perf_counter()
    for i in range(1000):
        h, edges, _nodes, sources = oracles.random_hypergraph(rng)
        want_tainted, want_edges = oracles.closure_taint(edges, sources)
        t = tpa(h, frozenset(sources))
        assert set(t.tainted) == want_tainted, f"graph {i}: tainted sets differ"
        assert set(t.taint_edges) == want_edges, f"graph {i}: edge sets differ"
        shuffled = oracles.rebuild_shuffled(h, edges, rng)
        ts = tpa(shuffled, frozenset(sources))
        assert set(ts.tainted) == want_tainted, f"graph {i}: order-sensitive taint"
        assert set(ts.taint_edges) == want_edges, f"graph {i}: order-sensitive edges"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"taint oracle sweep took {elapsed:.2f}s"
    print(f"PASS c2: 1000 random graphs (direct + shuffled) in {elapsed:.2f}s")


def _bytes_check(bundle: SliceBundle, source: str) -> None:
    combined = len(bundle.combined_text.encode("utf-8"))
    total = len(source.encode("utf-8"))
    assert combined <= total
    if bundle.stats.functions_selected < bundle.stats.functions_total:
        assert combined < total


def test_c3_slice_selection_equals_predicate_and_shrinks_bytes():
    started = time.perf_counter()
    cases = 0
    for name in fixutil.FIXTURE_NAMES:
        unit = fixutil.load_unit(name)
        models = lower(unit)
        h = build(models)
        t = tpa(h, default_sources(h))
        for flag in (True, False):
            sel = select_functions(t, h, models, include_constructors=flag)
            want = [
                f"{c}.{f}"
                for c, f in oracles.selection_oracle(models, set(t.tainted), flag)
            ]
            assert sel == want, (name, flag)
            _bytes_check(combine_slices(sel, models, unit.source_text), unit.source_text)
            cases += 1
    rng = random.Random(31337)
    for i in range(200):
        models, source = oracles.random_models(rng)
        h = build(models)
        t = tpa(h, default_sources(h))
        for flag in (True, False):
            sel = select_functions(t, h, models, include_constructors=flag)
            want = [
                f"{c}.{f}"
                for c, f in oracles.selection_oracle(models, set(t.tainted), flag)
            ]
            assert sel == want, (i, flag)
            _bytes_check(combine_slices(sel, models, source), source)
            cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"slicing sweep took {elapsed:.2f}s"
    print(f"PASS c3: {cases} selection cases match the predicate in {elapsed:.2f}s")


def test_c4_mock_detection_is_deterministic_end_to_end():
    started = time.perf_counter()
    ponzi = fixutil.load_unit("simple_ponzi")
    token = fixutil.load_unit("mini_token")

    first = detect_contract(ponzi, LlmConfig(), repeats=5)
    assert first.final_verdict is True
    assert [r.verdict for r in first.runs] == [True] * 5

    clean = detect_contract(token, LlmConfig(), repeats=5)
    assert clean.final_verdict is False
    assert [r.verdict for r in clean.runs] == [False] * 5

    again_p = detect_contract(ponzi, LlmConfig(), repeats=5)
    again_t = detect_contract(token, LlmConfig(), repeats=5)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        again_p.to_dict(), sort_keys=True
    )
    assert json.dumps(clean.to_dict(), sort_keys=True) == json.dumps(
        again_t.to_dict(), sort_keys=True
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"mock detection took {elapsed:.2f}s"
    print(f"PASS c4: 5/5 true, 5/5 false, byte-identical reports in {elapsed:.2f}s")


def _fallback(bundle: SliceBundle, source: str) -> SliceBundle:
    # Mirror the detector: an empty slice falls back to the whole source.
    if bundle.combined_text.strip() or bundle.header:
        return bundle
    return SliceBundle(
        selected=(),
        combined_text=source,
        per_function={},
        header="",
        stats=bundle.stats,
    )


def test_c5_prompt_modes_are_separated_on_prompt_bytes():
    for name in fixutil.FIXTURE_NAMES:
        unit = fixutil.load_unit(name)

        art = run_static_pipeline(unit, MODE_FULL)
        bundle = _fallback(art.bundle, unit.source_text)
        full = build_analysis_prompt(bundle, art.dot, MODE_FULL).rendered
        assert bundle.combined_text in full, name
        assert art.dot.text in full, name

        art_nt = run_static_pipeline(unit, MODE_NO_TAINT)
        bundle_nt = _fallback(art_nt.bundle, unit.source_text)
        no_taint = build_analysis_prompt(bundle_nt, None, MODE_NO_TAINT).rendered
        assert "digraph" not in no_taint, name

        art_raw = run_static_pipeline(unit, MODE_RAW)
        raw = build_analysis_prompt(art_raw.bundle, None, MODE_RAW).rendered
        assert unit.source_text in raw, name
    print(f"PASS c5: mode separation holds on {len(fixutil.FIXTURE_NAMES)} fixtures")


def test_c6_dot_output_parses_and_recovers_taint_edges():
    checked = 0
    for name in fixutil.FIXTURE_NAMES:
        art = run_static_pipeline(fixutil.load_unit(name), MODE_FULL)
        parsed = dotcheck.parse_dot(art.dot.text)
        want = Counter(
            (".".join(a.path), ".".join(b.path)) for a, b in art.taint.taint_edges
        )
        assert Counter(parsed.edges) == want, name

        again = run_static_pipeline(fixutil.load_unit(name), MODE_FULL)
        assert again.dot.text == art.dot.text, name
        checked += 1

    clustered = run_static_pipeline(
        fixutil.load_unit("simple_ponzi"), MODE_FULL,
        render_opts=RenderOptions(cluster=True),
    )
    parsed = dotcheck.parse_dot(clustered.dot.text)
    want = Counter(
        (".".join(a.path), ".".join(b.path)) for a, b in clustered.taint.taint_edges
    )
    assert Counter(parsed.edges) == want
    print(f"PASS c6: {checked} flat + 1 clustered DOT documents parse and round-trip")


def test_c7_cost_ledger_matches_independent_recomputation():
    cfg = LlmConfig(price_per_1k_input=0.001, price_per_1k_output=0.001)
    reports = [
        detect_contract(fixutil.load_unit(name), cfg, repeats=3)
        for name in ("simple_ponzi", "mini_token", "pool", "gated")
    ]
    stats = aggregate_overhead(reports)
    recomputed = []
    for report in reports:
        per_contract = 0.0
        for run in report.runs:
            per_contract += (run.input_tokens * 0.001 + run.output_tokens * 0.001) / 1000.0
        recomputed.append(per_contract)
    mean = sum(recomputed) / len(recomputed)
    assert stats.mean_cost > 0.0
    # Far inside one smallest currency unit at these magnitudes.
    assert abs(stats.mean_cost - mean) <= 1e-9

    def timed(cid: str, wall: float) -> DetectionReport:
        return DetectionReport(
            contract_id=cid, mode="full", model="m", template_version="tv",
            runs=[RunRecord(True, "t", 1, 1, wall, 0.0)], final_verdict=True,
        )

    two = aggregate_overhead([timed("a", 1.0), timed("b", 3.0)])
    assert two.std_wall_seconds == 1.0
    print(f"PASS c7: mean cost {stats.mean_cost:.9f} matches recomputation; std(1s,3s)=1.0")


def test_c8_throughput_static_under_1s_and_batch_under_30s(batch_corpus):
    source, doc = programs.tall_unit(lines=500)
    assert source.count("\n") >= 500
    unit = load_ast(doc)
    started = time.perf_counter()
    art = run_static_pipeline(unit, MODE_FULL)
    static_elapsed = time.perf_counter() - started
    assert art.dot is not None
    assert static_elapsed < 1.0, f"static pipeline took {static_elapsed:.3f}s"

    manifest_path, _root = batch_corpus
    manifest = load_manifest(manifest_path)
    assert len(manifest.entries) == 100
    started = time.perf_counter()
    reports = run_batch(manifest, LlmConfig(), repeats=5)
    batch_elapsed = time.perf_counter() - started
    assert len(reports) == 100
    assert batch_elapsed < 30.0, f"100-contract batch took {batch_elapsed:.2f}s"
    metrics = compute_metrics(manifest, reports)
    assert metrics.tp + metrics.tn == 100
    print(
        f"PASS c8: {source.count(chr(10))}-line static {static_elapsed*1000:.0f}ms; "
        f"100-contract batch {batch_elapsed:.2f}s"
    )


def test_c9_interrupted_batch_resumes_to_identical_reports(batch_corpus, tmp_path):
    manifest_path, _root = batch_corpus
    manifest = load_manifest(manifest_path)
    journal = tmp_path / "journal.jsonl"
    seen = 0

    def interrupt(report: DetectionReport) -> None:
        nonlocal seen
        seen += 1
        if seen == 50:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_batch(manifest, LlmConfig(), repeats=5, journal=journal, on_report=interrupt)
    assert len(journal.read_text().splitlines()) == 50

    resumed = run_batch(manifest, LlmConfig(), repeats=5, journal=journal)
    uninterrupted = run_batch(manifest, LlmConfig(), repeats=5)
    assert [r.to_dict() for r in resumed] == [r.to_dict() for r in uninterrupted]
    print("PASS c9: resume after interrupt at 50/100 matches the uninterrupted batch")
