"""Manifests, batch driving with resume, confusion metrics, and overhead."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

import astfuzz
import fixutil
import ponzilens.evaluation as evaluation_mod
import programs
from ponzilens.detect import DetectionReport, LlmConfig, RunRecord, TemplateSet
from ponzilens.errors import LabelMismatch
from ponzilens.evaluation import (
    DatasetManifest,
    ManifestEntry,
    MetricsSummary,
    aggregate_overhead,
    balanced_accuracy,
    compute_metrics,
    load_manifest,
    read_journal,
    run_batch,
    unit_for_entry,
)
from ponzilens.ingest import SourceUnit

PONZI = "ponzi"
CLEAN = "non_ponzi"


def _entry(eid: str, name: str, label: str) -> ManifestEntry:
    return ManifestEntry(
        id=eid, path_or_address=str(fixutil.fixture_path(name)), label=label
    )


def _manifest(*entries: ManifestEntry) -> DatasetManifest:
    return DatasetManifest(list(entries))


# --- manifests --------------------------------------------------------------


def test_load_manifest_csv(tmp_path):
    p = tmp_path / "corpus.csv"
    p.write_text(
        "id,path_or_address,label\n"
        "a,contracts/a.json,ponzi\n"
        "b,0x" + "ab" * 20 + ",non_ponzi\n"
    )
    m = load_manifest(p)
    assert m.entries == [
        ManifestEntry(id="a", path_or_address="contracts/a.json", label=PONZI),
        ManifestEntry(id="b", path_or_address="0x" + "ab" * 20, label=CLEAN),
    ]
    assert m.labels() == {"a": PONZI, "b": CLEAN}


def test_load_manifest_jsonl(tmp_path):
    p = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "a", "path_or_address": "x.json", "label": PONZI},
        {"id": "b", "path_or_address": "y.json", "label": CLEAN},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
    m = load_manifest(p)
    assert [e.id for e in m.entries] == ["a", "b"]


def test_load_manifest_sniffs_json_without_extension(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text('{"id": "a", "path_or_address": "x", "label": "ponzi"}\n')
    assert load_manifest(p).entries[0].id == "a"


def test_load_manifest_rejects_bad_rows(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("id,path_or_address,label\na,x,ponzi\na,y,non_ponzi\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_manifest(dup)

    bad_label = tmp_path / "label.csv"
    bad_label.write_text("id,path_or_address,label\na,x,scam\n")
    with pytest.raises(ValueError, match="label"):
        load_manifest(bad_label)

    no_id = tmp_path / "noid.csv"
    no_id.write_text("name,path_or_address,label\na,x,ponzi\n")
    with pytest.raises(ValueError, match="header"):
        load_manifest(no_id)

    missing_col = tmp_path / "col.jsonl"
    missing_col.write_text('{"id": "a", "label": "ponzi"}\n')
    with pytest.raises(ValueError, match="missing manifest column"):
        load_manifest(missing_col)

    torn = tmp_path / "torn.jsonl"
    torn.write_text('{"id": "a", "path_or_address": "x", "label": "ponzi"\n')
    with pytest.raises(ValueError, match="invalid JSON"):
        load_manifest(torn)


@pytest.mark.parametrize("row", ["[1]", '"x"', "5", "null"])
def test_load_manifest_refuses_a_row_that_is_not_an_object(tmp_path, row):
    p = tmp_path / "corpus.jsonl"
    p.write_text('{"id": "a", "path_or_address": "x", "label": "ponzi"}\n' + row + "\n")
    with pytest.raises(ValueError, match=r"corpus\.jsonl:2: manifest row is not a JSON object"):
        load_manifest(p)


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "corpus.jsonl",
            '{"id": null, "path_or_address": "x", "label": "ponzi"}',
            "corpus.jsonl:1: manifest column 'id' has no value",
        ),
        (
            "corpus.jsonl",
            '{"id": "a", "path_or_address": {"a": 1}, "label": "ponzi"}',
            "corpus.jsonl:1: manifest column 'path_or_address' is not a string: {'a': 1}",
        ),
        (
            "corpus.jsonl",
            '{"id": 7, "path_or_address": "x", "label": "ponzi"}',
            "corpus.jsonl:1: manifest column 'id' is not a string: 7",
        ),
        (
            "corpus.csv",
            "id,path_or_address,label\na,x,ponzi\nonly\n",
            "corpus.csv:3: manifest column 'path_or_address' has no value",
        ),
        (
            "corpus.csv",
            "id,path_or_address,label\na,x\n",
            "corpus.csv:2: manifest column 'label' has no value",
        ),
    ],
    ids=["json-null", "json-object", "json-number", "csv-one-cell", "csv-two-cells"],
)
def test_load_manifest_names_the_column_of_a_cell_that_is_not_a_string(
    tmp_path, name, text, message
):
    p = tmp_path / name
    p.write_text(text + "\n")
    with pytest.raises(ValueError) as refused:
        load_manifest(p)
    assert str(refused.value) == str(tmp_path / message)


@pytest.mark.parametrize(
    "name, text",
    [
        ("corpus.csv", "id,path_or_address,label\na,x.json,ponzi\n"),
        ("corpus.jsonl", '{"id": "a", "path_or_address": "x.json", "label": "ponzi"}\n'),
    ],
    ids=["csv", "jsonl"],
)
def test_load_manifest_accepts_a_utf8_byte_order_mark(tmp_path, name, text):
    # Spreadsheet exports begin a CSV with one.
    p = tmp_path / name
    p.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_manifest(p).entries == [ManifestEntry("a", "x.json", PONZI)]


# --- journal and report files -------------------------------------------------


def _report(
    cid: str,
    verdict: bool | None,
    *,
    runs: int = 1,
    error: dict | None = None,
    wall: float = 0.0,
    tokens: tuple[int, int] = (10, 5),
    cost: float = 0.0,
) -> DetectionReport:
    # The settings of a mock full-mode batch with `runs` repeats, so a
    # journal of these resumes such a batch.
    return DetectionReport(
        contract_id=cid,
        mode="full",
        model=LlmConfig().model_label,
        template_version=TemplateSet().version("full"),
        runs=[
            RunRecord(
                verdict=verdict,
                analysis_text="a",
                input_tokens=tokens[0],
                output_tokens=tokens[1],
                wall_seconds=wall,
                cost=cost,
            )
            for _ in range(runs)
        ],
        final_verdict=verdict,
        error=error,
    )


def _write_journal(reports: list[DetectionReport], path) -> None:
    """A journal as run_batch writes it: one report object per line."""
    path.write_text("".join(json.dumps(r.to_dict()) + "\n" for r in reports))


def test_read_journal_skips_torn_lines(tmp_path):
    p = tmp_path / "journal.jsonl"
    good = _report("a", True)
    lines = [
        json.dumps(good.to_dict()),
        "",
        json.dumps(_report("b", False).to_dict()),
        json.dumps(good.to_dict())[: 20],  # interrupted mid-write
    ]
    p.write_text("\n".join(lines))
    done = read_journal(p)
    assert set(done) == {"a", "b"}
    assert done["a"].to_dict() == good.to_dict()


@pytest.mark.parametrize(
    "damaged",
    [
        "[1, 2]",
        '"text"',
        '{"contract_id": "a", "runs": 5}',
        '{"contract_id": "a", "runs": [null]}',
        '{"contract_id": "a", "runs": [{"input_tokens": "many"}]}',
        '{"contract_id": "a", "final_verdict": "false"}',
        '{"contract_id": "a", "final_verdict": 0}',
        '{"contract_id": "a", "runs": [{"verdict": "true"}]}',
        '{"contract_id": 7}',
        '{"contract_id": "a", "error": "boom"}',
        '{"contract_id": "a", "slice_stats": [1]}',
        pytest.param('{"contract_id": "a", "runs": ' + "[" * 3000 + "]" * 3000 + "}", id="deep"),
    ],
)
def test_read_journal_skips_valid_json_that_is_not_a_report(tmp_path, damaged):
    p = tmp_path / "journal.jsonl"
    good = _report("b", True)
    p.write_text(damaged + "\n" + json.dumps(good.to_dict()) + "\n")
    done = read_journal(p)
    assert list(done) == ["b"]
    assert done["b"].to_dict() == good.to_dict()


def test_read_journal_missing_file_is_empty(tmp_path):
    assert read_journal(tmp_path / "absent.jsonl") == {}


# --- entry resolution -----------------------------------------------------


def test_unit_for_entry_prefers_existing_path(tmp_path):
    sol = tmp_path / "thing.sol"
    sol.write_text("pragma solidity ^0.8.0;\ncontract T {}")
    entry = ManifestEntry(id="custom-id", path_or_address=str(sol), label=PONZI)
    unit = unit_for_entry(entry)
    assert unit.id == "custom-id"
    assert unit.source_text.startswith("pragma")


def test_unit_for_entry_fetches_addresses(monkeypatch):
    addr = "0x" + "cd" * 20
    calls = []

    def fake_fetch(address, cfg):
        calls.append(address)
        return SourceUnit(id=address, source_text="contract A {}")

    monkeypatch.setattr(evaluation_mod, "fetch_verified_source", fake_fetch)
    entry = ManifestEntry(id="chain-1", path_or_address=addr, label=CLEAN)
    unit = unit_for_entry(entry)
    assert calls == [addr]
    assert unit.id == "chain-1"


def test_unit_for_entry_unknown_target(tmp_path):
    entry = ManifestEntry(
        id="gone", path_or_address=str(tmp_path / "missing.json"), label=PONZI
    )
    with pytest.raises(FileNotFoundError):
        unit_for_entry(entry)


# --- batch driving ----------------------------------------------------------


def test_run_batch_serial_with_journal(tmp_path):
    manifest = _manifest(
        _entry("sp", "simple_ponzi", PONZI),
        _entry("mt", "mini_token", CLEAN),
        _entry("hw", "hollow", CLEAN),
    )
    journal = tmp_path / "journal.jsonl"
    reports = run_batch(manifest, LlmConfig(), repeats=2, journal=journal)
    assert [r.contract_id for r in reports] == ["sp", "mt", "hw"]
    assert [r.final_verdict for r in reports] == [True, False, False]
    assert all(len(r.runs) == 2 for r in reports)
    assert len(journal.read_text().splitlines()) == 3


def test_run_batch_records_too_deep_a_file_as_an_ingest_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(programs.deep_json_text(3000))
    manifest = _manifest(
        ManifestEntry(id="deep", path_or_address=str(deep), label=CLEAN),
        _entry("sp", "simple_ponzi", PONZI),
    )
    deep_report, sp = run_batch(manifest, LlmConfig(), repeats=1)
    assert deep_report.error == {
        "phase": "ingest",
        "message": "AST document is nested too deeply to parse",
    }
    assert sp.final_verdict is True


def test_run_batch_resumes_from_journal(tmp_path):
    manifest = _manifest(
        _entry("sp", "simple_ponzi", PONZI),
        _entry("mt", "mini_token", CLEAN),
    )
    journal = tmp_path / "journal.jsonl"
    precomputed = _report("sp", False)
    _write_journal([precomputed], journal)
    reports = run_batch(manifest, LlmConfig(), repeats=1, journal=journal)
    # sp was replayed from the journal, not recomputed: its verdict would be true.
    assert reports[0].to_dict() == precomputed.to_dict()
    assert reports[1].model == "mock:gpt-3.5-turbo"
    assert len(journal.read_text().splitlines()) == 2


def _raw_journal(tmp_path):
    """A journal of a raw-mode mock batch with one repeat: sp's report has
    runs, and broken's is an ingest error without runs."""
    manifest = _manifest(
        _entry("sp", "simple_ponzi", PONZI),
        ManifestEntry(id="broken", path_or_address=str(tmp_path / "no.json"), label=CLEAN),
    )
    journal = tmp_path / "journal.jsonl"
    run_batch(manifest, LlmConfig(), "raw", 1, journal=journal)
    return manifest, journal


@pytest.mark.parametrize(
    "mode, cfg, repeats, wrong",
    [
        ("full", LlmConfig(), 1, "report 'sp' has mode 'raw', not 'full'"),
        (
            "raw",
            LlmConfig(model="other"),
            1,
            "report 'sp' has model 'mock:gpt-3.5-turbo', not 'mock:other'",
        ),
        ("raw", LlmConfig(), 3, "report 'sp' has runs 1, not 3"),
        ("full", LlmConfig(model="other"), 3, "report 'sp' has mode 'raw', not 'full'"),
    ],
    ids=["mode", "model", "runs", "all"],
)
def test_run_batch_refuses_a_journal_made_with_other_settings(tmp_path, mode, cfg, repeats, wrong):
    manifest, journal = _raw_journal(tmp_path)
    before = journal.read_text()
    with pytest.raises(ValueError, match=re.escape(f"journal.jsonl: {wrong}")):
        run_batch(manifest, cfg, mode, repeats, journal=journal)
    assert journal.read_text() == before


def test_run_batch_refuses_a_journaled_report_of_another_template_version(tmp_path):
    manifest, journal = _raw_journal(tmp_path)
    journal.write_text(journal.read_text().replace("analysis_code_v1", "analysis_code_v0"))
    with pytest.raises(ValueError, match="'sp' has template_version 'analysis_code_v0"):
        run_batch(manifest, LlmConfig(), "raw", 1, journal=journal)


def test_run_batch_refuses_a_journal_made_with_other_template_text(tmp_path):
    """A template directory is part of the version: a resume with one that
    rewrites a template does not reuse reports made with the packaged text."""
    manifest, journal = _raw_journal(tmp_path)
    before = journal.read_text()
    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "analysis_code_v1.txt").write_text("Review this contract.\n$code\n")
    custom = TemplateSet(tdir)
    assert custom.version("raw").startswith("analysis_code_v1@")
    assert custom.version("raw").endswith("+detection_v1")
    with pytest.raises(ValueError, match="'sp' has template_version 'analysis_code_v1\\+"):
        run_batch(manifest, LlmConfig(), "raw", 1, journal=journal, templates=custom)
    assert journal.read_text() == before


def test_run_batch_compares_a_report_without_runs_on_mode_and_model(tmp_path):
    manifest, journal = _raw_journal(tmp_path)
    (broken,) = [r for r in read_journal(journal).values() if r.contract_id == "broken"]
    _write_journal([broken], journal)
    sp, broken_again = run_batch(manifest, LlmConfig(), "raw", 3, journal=journal)
    # The ingest error is kept, not run again, whatever the run count.
    assert broken_again.to_dict() == broken.to_dict()
    assert len(sp.runs) == 3
    with pytest.raises(ValueError, match="'broken' has model"):
        run_batch(manifest, LlmConfig(model="other"), "raw", 3, journal=journal)


def test_run_batch_runs_a_backend_failure_again(tmp_path):
    manifest = _manifest(_entry("sp", "simple_ponzi", PONZI), _entry("mt", "mini_token", CLEAN))
    journal = tmp_path / "journal.jsonl"
    failed = _report("sp", None, runs=0, error={"phase": "detect", "message": "HTTP 503"})
    kept = _report("mt", False)
    _write_journal([failed, kept], journal)
    sp, mt = run_batch(manifest, LlmConfig(), repeats=1, journal=journal)
    assert sp.error is None and sp.final_verdict is True
    assert mt.to_dict() == kept.to_dict()
    assert len(journal.read_text().splitlines()) == 3
    # The new line wins on the next read.
    assert read_journal(journal)["sp"].to_dict() == sp.to_dict()


def test_run_batch_ignores_stale_journal_ids(tmp_path):
    manifest = _manifest(_entry("sp", "simple_ponzi", PONZI))
    journal = tmp_path / "journal.jsonl"
    _write_journal([_report("ghost", True)], journal)
    reports = run_batch(manifest, LlmConfig(), repeats=1, journal=journal)
    assert [r.contract_id for r in reports] == ["sp"]


def test_run_batch_isolates_per_contract_failures(tmp_path):
    manifest = _manifest(
        ManifestEntry(id="broken", path_or_address=str(tmp_path / "no.json"), label=PONZI),
        _entry("mt", "mini_token", CLEAN),
    )
    reports = run_batch(manifest, LlmConfig(), repeats=1)
    assert reports[0].error is not None and reports[0].error["phase"] == "ingest"
    assert reports[0].runs == []
    assert reports[1].final_verdict is False


def test_run_batch_ingest_failure_carries_the_batch_model_label(tmp_path):
    manifest = _manifest(
        ManifestEntry(id="broken", path_or_address=str(tmp_path / "no.json"), label=PONZI),
        _entry("mt", "mini_token", CLEAN),
    )
    reports = run_batch(manifest, LlmConfig(), repeats=1)
    assert reports[0].error["phase"] == "ingest"
    assert [r.model for r in reports] == ["mock:gpt-3.5-turbo"] * 2


def test_run_batch_resume_reads_manifest_labels_once(tmp_path, monkeypatch):
    entries = [_entry(f"c{i}", "hollow", CLEAN) for i in range(6)]
    journal = tmp_path / "journal.jsonl"
    _write_journal([_report(e.id, False) for e in entries[:5]], journal)
    calls = []
    labels = DatasetManifest.labels

    def counted(self):
        calls.append(1)
        return labels(self)

    monkeypatch.setattr(DatasetManifest, "labels", counted)
    reports = run_batch(_manifest(*entries), LlmConfig(), repeats=1, journal=journal)
    assert [r.contract_id for r in reports] == [e.id for e in entries]
    assert len(calls) <= 1


def test_run_batch_interrupt_in_callback_keeps_journal(tmp_path):
    manifest = _manifest(
        _entry("sp", "simple_ponzi", PONZI),
        _entry("mt", "mini_token", CLEAN),
        _entry("hw", "hollow", CLEAN),
    )
    journal = tmp_path / "journal.jsonl"
    seen = []

    def boom(report):
        seen.append(report.contract_id)
        if len(seen) == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_batch(manifest, LlmConfig(), repeats=1, journal=journal, on_report=boom)
    # The interrupted contract was flushed before the callback fired.
    assert len(journal.read_text().splitlines()) == 1

    resumed = run_batch(manifest, LlmConfig(), repeats=1, journal=journal)
    clean = run_batch(_manifest(*manifest.entries), LlmConfig(), repeats=1)
    assert [r.to_dict() for r in resumed] == [r.to_dict() for r in clean]


def test_run_batch_concurrent_matches_serial():
    entries = []
    for i in range(8):
        name = "simple_ponzi" if i % 2 == 0 else "mini_token"
        label = PONZI if i % 2 == 0 else CLEAN
        entries.append(_entry(f"c{i}", name, label))
    manifest = _manifest(*entries)
    serial = run_batch(manifest, LlmConfig(concurrency_limit=1), repeats=2)
    threaded = run_batch(manifest, LlmConfig(concurrency_limit=4), repeats=2)
    assert [r.to_dict() for r in threaded] == [r.to_dict() for r in serial]


def test_run_batch_runs_mock_contracts_on_the_calling_thread(monkeypatch):
    # The mock backend only computes, so a pool would overlap no waiting.
    threads = []
    real = evaluation_mod.detect_contract

    def traced(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation_mod, "detect_contract", traced)
    manifest = _manifest(*(_entry(f"c{i}", "mini_token", CLEAN) for i in range(6)))
    run_batch(manifest, LlmConfig(concurrency_limit=4), repeats=1)
    assert threads == [threading.current_thread()] * 6


def test_run_batch_over_http_bookkeeping_stays_linear(monkeypatch):
    """The calling thread only records reports: for 2,000 contracts of
    0.5 ms each its CPU time stays far below what rescanning every pending
    contract after each completion costs (about 1 s on 2 vCPUs)."""

    def stub_detect(unit, cfg, mode, repeats, templates=None, slots=None):
        time.sleep(0.0005)
        return DetectionReport(
            contract_id=unit.id, mode=mode, model=cfg.model_label, template_version=""
        )

    monkeypatch.setattr(evaluation_mod, "unit_for_entry", lambda entry, fetch_cfg: entry)
    monkeypatch.setattr(evaluation_mod, "detect_contract", stub_detect)
    manifest = _manifest(*(ManifestEntry(f"c{i}", "unused", CLEAN) for i in range(2000)))
    start = time.thread_time()
    reports = run_batch(manifest, LlmConfig(backend="http"), repeats=1)
    spent = time.thread_time() - start
    assert [r.contract_id for r in reports] == [e.id for e in manifest.entries]
    # A stub that no longer fits the call would turn every contract into an
    # internal error report, and the timing would still pass.
    assert all(r.error is None for r in reports)
    assert spent < 0.3


def test_run_batch_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_batch(_manifest(), LlmConfig(), mode="loud")


def test_run_batch_rejects_zero_repeats():
    with pytest.raises(ValueError):
        run_batch(_manifest(_entry("sp", "simple_ponzi", PONZI)), LlmConfig(), repeats=0)


def test_run_batch_reports_an_escaped_exception_as_internal(tmp_path, monkeypatch):
    real = evaluation_mod.detect_contract

    def flaky(unit, *args, **kwargs):
        if unit.id == "sp":
            raise KeyError("lost")
        return real(unit, *args, **kwargs)

    monkeypatch.setattr(evaluation_mod, "detect_contract", flaky)
    manifest = _manifest(_entry("sp", "simple_ponzi", PONZI), _entry("mt", "mini_token", CLEAN))
    journal = tmp_path / "journal.jsonl"
    sp, mt = run_batch(manifest, LlmConfig(), repeats=1, journal=journal)
    assert sp.error == {"phase": "internal", "message": "KeyError: 'lost'"}
    assert sp.runs == [] and sp.final_verdict is None
    assert sp.model == "mock:gpt-3.5-turbo"
    assert mt.final_verdict is False
    assert read_journal(journal)["sp"].to_dict() == sp.to_dict()


def test_run_batch_reports_an_exception_out_of_loading_as_internal(tmp_path, monkeypatch):
    real = evaluation_mod.load_source_unit

    def flaky(path):
        if str(path).endswith("simple_ponzi.json"):
            raise KeyError("lost")
        return real(path)

    monkeypatch.setattr(evaluation_mod, "load_source_unit", flaky)
    manifest = _manifest(_entry("sp", "simple_ponzi", PONZI), _entry("mt", "mini_token", CLEAN))
    journal = tmp_path / "journal.jsonl"
    sp, mt = run_batch(manifest, LlmConfig(), repeats=1, journal=journal)
    assert sp.error == {"phase": "internal", "message": "KeyError: 'lost'"}
    assert sp.runs == [] and sp.final_verdict is None
    assert mt.final_verdict is False
    assert read_journal(journal)["sp"].to_dict() == sp.to_dict()


def test_run_batch_lets_an_interrupt_in_loading_through(monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation_mod, "load_source_unit", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_batch(_manifest(_entry("sp", "simple_ponzi", PONZI)), LlmConfig(), repeats=1)


def test_fuzzed_documents_never_reach_the_internal_guard(tmp_path):
    entries = []
    for seed in range(60):
        path = tmp_path / f"f{seed}.json"
        path.write_text(json.dumps(astfuzz.unit(seed)))
        entries.append(ManifestEntry(id=f"f{seed}", path_or_address=str(path), label=CLEAN))
    reports = run_batch(_manifest(*entries), LlmConfig(), repeats=1)
    assert [r.error for r in reports if r.error and r.error["phase"] == "internal"] == []
    assert sum(r.error is None for r in reports) > 40


def test_run_batch_lets_an_interrupt_in_detection_through(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation_mod, "detect_contract", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_batch(_manifest(_entry("sp", "simple_ponzi", PONZI)), LlmConfig(), repeats=1)


# --- metrics ----------------------------------------------------------------


def _labels_manifest(labels: dict[str, str]) -> DatasetManifest:
    return DatasetManifest(
        [ManifestEntry(id=k, path_or_address=f"{k}.json", label=v) for k, v in labels.items()]
    )


def test_compute_metrics_confusion_mix():
    manifest = _labels_manifest(
        {
            "p1": PONZI, "p2": PONZI, "p3": PONZI, "p4": PONZI,
            "n1": CLEAN, "n2": CLEAN, "n3": CLEAN, "n4": CLEAN,
        }
    )
    reports = [
        _report("p1", True),
        _report("p2", False),
        _report("p3", None),  # runs exist, nothing parseable
        _report("p4", None, runs=0, error={"phase": "ingest", "message": "x"}),
        _report("n1", False),
        _report("n2", True),
        _report("n3", None),
        _report("n4", None, runs=0, error={"phase": "detect", "message": "x"}),
    ]
    m = compute_metrics(manifest, reports)
    assert (m.tp, m.tn, m.fp, m.fn) == (1, 1, 1, 1)
    assert (m.unparseable, m.errored) == (2, 2)
    assert m.tpr == m.tnr == m.fpr == m.fnr == m.bac == 0.5
    assert m.to_dict()["bac"] == 0.5


def test_compute_metrics_perfect_split():
    manifest = _labels_manifest({"p1": PONZI, "p2": PONZI, "n1": CLEAN})
    m = compute_metrics(
        manifest, [_report("p1", True), _report("p2", True), _report("n1", False)]
    )
    assert (m.tpr, m.tnr, m.fpr, m.fnr, m.bac) == (1.0, 1.0, 0.0, 0.0, 1.0)


def test_compute_metrics_unknown_id_raises():
    manifest = _labels_manifest({"a": PONZI})
    with pytest.raises(LabelMismatch):
        compute_metrics(manifest, [_report("intruder", True)])


def test_compute_metrics_empty_denominators_stay_zero():
    positives_only = _labels_manifest({"p1": PONZI})
    m = compute_metrics(positives_only, [_report("p1", True)])
    assert (m.tnr, m.fpr) == (0.0, 0.0)
    assert m.bac == 0.5

    negatives_only = _labels_manifest({"n1": CLEAN})
    m = compute_metrics(negatives_only, [_report("n1", False)])
    assert (m.tpr, m.fnr) == (0.0, 0.0)

    m = compute_metrics(positives_only, [])
    assert (m.tp, m.tn, m.fp, m.fn, m.tpr, m.tnr, m.fpr, m.fnr, m.bac) == (
        0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )


def test_balanced_accuracy():
    assert balanced_accuracy(0.5, 0.7) == pytest.approx(0.6)
    assert balanced_accuracy(1.0, 0.0) == 0.5
    assert balanced_accuracy(0.964, 0.9571) == pytest.approx(0.96055)


# --- overhead ---------------------------------------------------------------


def test_aggregate_overhead_population_stats():
    r1 = DetectionReport(
        contract_id="a", mode="full", model="m", template_version="tv",
        runs=[
            RunRecord(True, "t", 10, 5, 0.5, 0.001),
            RunRecord(True, "t", 20, 5, 0.5, 0.002),
        ],
        final_verdict=True,
    )
    r2 = DetectionReport(
        contract_id="b", mode="full", model="m", template_version="tv",
        runs=[RunRecord(False, "t", 40, 10, 3.0, 0.005)],
        final_verdict=False,
    )
    errored = DetectionReport(
        contract_id="c", mode="full", model="m", template_version="tv",
        error={"phase": "ingest", "message": "x"},
    )
    stats = aggregate_overhead([r1, r2, errored])
    assert stats.contracts == 2
    # Per-contract walls are (1.0, 3.0): population std is exactly 1.0.
    assert stats.mean_wall_seconds == pytest.approx(2.0)
    assert stats.std_wall_seconds == pytest.approx(1.0)
    assert stats.mean_tokens_per_run == pytest.approx((15 + 25 + 50) / 3)
    assert stats.mean_cost == pytest.approx(0.004)
    assert stats.total_cost == pytest.approx(0.008)
    assert stats.total_tokens == 90
    assert stats.to_dict()["contracts"] == 2


def test_aggregate_overhead_empty():
    stats = aggregate_overhead([])
    assert stats.contracts == 0
    assert stats.mean_wall_seconds == stats.std_wall_seconds == 0.0
    assert stats.mean_tokens_per_run == stats.mean_cost == stats.total_cost == 0.0
    assert stats.total_tokens == 0


def test_metrics_summary_shape():
    m = MetricsSummary(
        tp=1, tn=2, fp=3, fn=4, unparseable=5, errored=6,
        tpr=0.1, tnr=0.2, fpr=0.8, fnr=0.9, bac=0.15,
    )
    d = m.to_dict()
    assert set(d) == {
        "tp", "tn", "fp", "fn", "unparseable", "errored",
        "tpr", "tnr", "fpr", "fnr", "bac",
    }
