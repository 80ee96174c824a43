"""Batch detection over labeled corpora, confusion metrics, and overhead.

A manifest names the corpus: one row per contract with an id, a path (or
hex address, resolved through the explorer fetcher), and a binary label.
run_batch drives detection across the corpus with a line-JSON journal:
every report is appended and flushed once its contract finishes. The mock
backend runs contracts one after another on the calling thread, in manifest
order. Over HTTP a pool keeps `concurrency_limit` + 1 contracts open (the
limit is three by default), which draw on one budget of `concurrency_limit`
times min(repeats, 16) two-stage runs in flight, and journal lines land in
the order contracts finish, at every limit. An interrupted batch still
journals every contract that finished. A resume skips the ids the journal
already holds, except a report whose backend failed (phase `detect`), and
refuses a journal whose reports were made with other settings (`Settings`).

Metric conventions: ponzi is the positive class. Reports whose final
verdict is None (pipeline error or nothing parseable) are excluded from the
confusion matrix and counted in their own column, so published-style rates
are never silently diluted by failures.
"""

from __future__ import annotations

import csv
import json
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .detect import (
    BACKEND_MOCK,
    DetectionReport,
    LlmConfig,
    MODE_FULL,
    MODES,
    Settings,
    TemplateSet,
    _MAX_CHAINS,
    detect_contract,
)
from .errors import LabelMismatch, PonzilensError
from .ingest import FetchConfig, SourceUnit, fetch_verified_source, is_address, load_source_unit

LABEL_POSITIVE = "ponzi"
LABEL_NEGATIVE = "non_ponzi"
LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE)


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path_or_address: str
    label: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for e in self.entries:
            if e.id in seen:
                raise ValueError(f"duplicate manifest id {e.id!r}")
            seen.add(e.id)
            if e.label not in LABELS:
                raise ValueError(
                    f"label for {e.id!r} must be one of {LABELS}, got {e.label!r}"
                )

    def labels(self) -> dict[str, str]:
        return {e.id: e.label for e in self.entries}


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a manifest from CSV (with header) or line-JSON.

    Both formats carry the columns id, path_or_address, label.
    """
    p = Path(path)
    text = p.read_text(encoding="utf-8-sig")
    entries: list[ManifestEntry] = []
    if p.suffix in (".jsonl", ".ndjson") or text.lstrip().startswith("{"):
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{p}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{p}:{lineno}: manifest row is not a JSON object")
            entries.append(_entry_from_row(row, f"{p}:{lineno}"))
    else:
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None or "id" not in reader.fieldnames:
            raise ValueError(f"{p}: CSV manifest needs an id,path_or_address,label header")
        for i, row in enumerate(reader, 2):
            entries.append(_entry_from_row(row, f"{p}:{i}"))
    return DatasetManifest(entries)


def _entry_from_row(row: dict, where: str) -> ManifestEntry:
    """The entry of one manifest row. Every cell is a string: a line-JSON
    null or number and a CSV row short of a cell (read as None) are refused
    by column."""
    cells = []
    for column in ("id", "path_or_address", "label"):
        if column not in row:
            raise ValueError(f"{where}: missing manifest column {column!r}")
        cell = row[column]
        if cell is None:
            raise ValueError(f"{where}: manifest column {column!r} has no value")
        if not isinstance(cell, str):
            raise ValueError(f"{where}: manifest column {column!r} is not a string: {cell!r}")
        cells.append(cell.strip())
    return ManifestEntry(*cells)


# --- batch driving ----------------------------------------------------------


def read_journal(path: str | Path) -> dict[str, DetectionReport]:
    """Reports already recorded in a line-JSON journal, keyed by id.

    A line that is not a report (a torn tail write from an interrupted run,
    damaged JSON of any shape, or JSON nested too deeply to parse) is
    skipped, so a resume runs that contract again.
    """
    p = Path(path)
    done: dict[str, DetectionReport] = {}
    if not p.exists():
        return done
    for line in p.read_text().splitlines():
        if not line.strip():
            continue
        try:
            report = DetectionReport.from_dict(json.loads(line))
            done[report.contract_id] = report
        except (ValueError, LookupError, TypeError, AttributeError, RecursionError):
            continue
    return done


def check_settings(reports: Iterable[DetectionReport], want: Settings, where: str | Path) -> None:
    """Refuse, with a ValueError naming the report and the field, the first
    report whose settings differ from `want` (see `Settings.mismatch`)."""
    for report in reports:
        wrong = report.settings.mismatch(want)
        if wrong is not None:
            raise ValueError(f"{where}: report {report.contract_id!r} has {wrong}")


def unit_for_entry(entry: ManifestEntry, fetch_cfg: FetchConfig | None = None) -> SourceUnit:
    """Resolve one manifest row to a SourceUnit (file path or address)."""
    target = entry.path_or_address
    if Path(target).exists():
        unit = load_source_unit(target)
    elif is_address(target):
        unit = fetch_verified_source(target, fetch_cfg or FetchConfig())
    else:
        raise FileNotFoundError(f"manifest entry {entry.id!r}: no file {target!r}")
    unit.id = entry.id
    return unit


def run_batch(
    manifest: DatasetManifest,
    cfg: LlmConfig,
    mode: str = MODE_FULL,
    repeats: int = 5,
    *,
    journal: str | Path | None = None,
    fetch_cfg: FetchConfig | None = None,
    on_report: Callable[[DetectionReport], None] | None = None,
    templates: TemplateSet | None = None,
) -> list[DetectionReport]:
    """Detect every manifest entry, resuming from the journal when present.

    The mock backend does no I/O to overlap, so its contracts run one after
    another on the calling thread, whatever the limit. Over HTTP one pool
    keeps cfg.concurrency_limit + 1 contracts open, so one is loaded,
    sliced and prompted while the others' runs are on the wire. Every
    two-stage run of the batch holds one of concurrency_limit times
    min(repeats, 16) slots for both its stages (see detect_contract), which
    bounds the requests in flight; at any limit the contract prepared ahead
    can take a slot first, so the journal is in finishing order.
    Failures stay isolated per contract: a contract whose load or pipeline
    fails yields an error report, and the batch continues. Any other
    exception out of loading or detect_contract, which is a defect, is
    reported with phase "internal" and its type and message. Each report is
    journaled and flushed to disk, on the calling thread, as soon as its
    contract finishes and before the on_report callback fires. When the
    callback or an interrupt raises, the contracts already running finish,
    every report not yet journaled is journaled without its callback, and
    the exception propagates, so an interrupt never loses a finished
    contract. Every contract is prompted from one `templates` set (default:
    the packaged templates).

    A resume keeps a journaled report of a manifest id unless its backend
    failed (phase "detect"), and runs that contract again; the new line
    wins, since read_journal keeps the last line per id. A journaled report
    made with other settings than the batch's (mode, model label and, when
    it has runs, template version and run count) is a ValueError naming it
    and the field, raised before any contract runs.

    Returns reports in manifest order.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    templates = templates or TemplateSet()
    labels = manifest.labels()
    journaled = read_journal(journal).values() if journal else ()
    journaled = [r for r in journaled if r.contract_id in labels]
    want = Settings(mode, cfg.model_label, templates.version(mode), repeats)
    check_settings(journaled, want, journal)
    # A backend failure may be gone by now (a key set, a server back up).
    done = {r.contract_id: r for r in journaled if (r.error or {}).get("phase") != "detect"}
    todo = [e for e in manifest.entries if e.id not in done]

    journal_path = Path(journal) if journal else None
    journal_fh = None
    if journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        journal_fh = journal_path.open("a")

    def keep(report: DetectionReport) -> None:
        if journal_fh is not None:
            journal_fh.write(json.dumps(report.to_dict()) + "\n")
            journal_fh.flush()
        done[report.contract_id] = report

    def record(report: DetectionReport) -> None:
        keep(report)
        if on_report is not None:
            on_report(report)

    def work(entry: ManifestEntry, slots: threading.Semaphore | None = None) -> DetectionReport:
        def failed(phase: str, message: str) -> DetectionReport:
            return DetectionReport(
                contract_id=entry.id,
                mode=mode,
                model=cfg.model_label,
                template_version="",
                error={"phase": phase, "message": message},
            )

        try:
            try:
                unit = unit_for_entry(entry, fetch_cfg)
            except (PonzilensError, OSError, ValueError) as exc:
                return failed("ingest", str(exc))
            return detect_contract(unit, cfg, mode, repeats, templates=templates, slots=slots)
        except Exception as exc:  # a defect must not abort the batch; Ctrl-C still does
            return failed("internal", f"{type(exc).__name__}: {exc}")

    try:
        if cfg.backend == BACKEND_MOCK:
            for entry in todo:
                record(work(entry))
        else:
            slots = threading.BoundedSemaphore(cfg.concurrency_limit * min(repeats, _MAX_CHAINS))
            with ThreadPoolExecutor(max_workers=cfg.concurrency_limit + 1) as pool:
                futures = [pool.submit(work, e, slots) for e in todo]
                try:
                    for fut in as_completed(futures):
                        record(fut.result())
                except BaseException:
                    # The reports of contracts that finished, before or while
                    # the pool drains, cost requests: journal them for a resume.
                    pool.shutdown(wait=True, cancel_futures=True)
                    for fut in futures:
                        if not fut.cancelled() and fut.exception() is None:
                            if fut.result().contract_id not in done:
                                keep(fut.result())
                    raise
    finally:
        if journal_fh is not None:
            journal_fh.close()

    return [done[e.id] for e in manifest.entries if e.id in done]


# --- metrics ----------------------------------------------------------------


def balanced_accuracy(tpr: float, tnr: float) -> float:
    """The mean of the two class-conditional rates."""
    return (tpr + tnr) / 2.0


@dataclass(frozen=True)
class MetricsSummary:
    tp: int
    tn: int
    fp: int
    fn: int
    unparseable: int
    errored: int
    tpr: float
    tnr: float
    fpr: float
    fnr: float
    bac: float

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(
    manifest: DatasetManifest, reports: Sequence[DetectionReport]
) -> MetricsSummary:
    """Confusion counts and rates for a batch of reports.

    Every report id must exist in the manifest (LabelMismatch otherwise).
    Reports without a usable verdict never enter the confusion matrix:
    pipeline errors count as errored, verdictless-but-clean runs as
    unparseable. Rates with an empty denominator are 0.0.
    """
    labels = manifest.labels()
    tp = tn = fp = fn = unparseable = errored = 0
    for report in reports:
        label = labels.get(report.contract_id)
        if label is None:
            raise LabelMismatch(
                f"report id {report.contract_id!r} not present in manifest"
            )
        if report.error is not None and not report.runs:
            errored += 1
            continue
        verdict = report.final_verdict
        if verdict is None:
            unparseable += 1
            continue
        actual_positive = label == LABEL_POSITIVE
        if verdict and actual_positive:
            tp += 1
        elif verdict and not actual_positive:
            fp += 1
        elif not verdict and actual_positive:
            fn += 1
        else:
            tn += 1
    tpr = tp / (tp + fn) if (tp + fn) else 0.0
    tnr = tn / (tn + fp) if (tn + fp) else 0.0
    return MetricsSummary(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        unparseable=unparseable,
        errored=errored,
        tpr=tpr,
        tnr=tnr,
        fpr=(1.0 - tnr) if (tn + fp) else 0.0,
        fnr=(1.0 - tpr) if (tp + fn) else 0.0,
        bac=balanced_accuracy(tpr, tnr),
    )


# --- overhead ---------------------------------------------------------------


@dataclass(frozen=True)
class OverheadStats:
    """Population statistics over per-contract detection effort.

    Wall time and cost are summed per contract across its runs before the
    mean/std are taken; token counts are averaged per individual detection
    run. Std is the population standard deviation. Wall time is summed
    backend time: a contract's runs over HTTP are in flight together, so
    mean_wall_seconds can exceed the time a contract took.
    """

    contracts: int
    mean_wall_seconds: float
    std_wall_seconds: float
    mean_tokens_per_run: float
    mean_cost: float
    total_cost: float
    total_tokens: int

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_overhead(reports: Sequence[DetectionReport]) -> OverheadStats:
    """Aggregate wall-time, token, and cost accounting over reports.

    Reports with no runs (errored before the backend) contribute nothing.
    """
    walls: list[float] = []
    costs: list[float] = []
    run_tokens: list[int] = []
    for report in reports:
        if not report.runs:
            continue
        walls.append(sum(run.wall_seconds for run in report.runs))
        costs.append(sum(run.cost for run in report.runs))
        run_tokens += (run.input_tokens + run.output_tokens for run in report.runs)
    return OverheadStats(
        contracts=len(walls),
        mean_wall_seconds=statistics.fmean(walls) if walls else 0.0,
        std_wall_seconds=statistics.pstdev(walls) if walls else 0.0,
        mean_tokens_per_run=statistics.fmean(run_tokens) if run_tokens else 0.0,
        mean_cost=statistics.fmean(costs) if costs else 0.0,
        total_cost=sum(costs),
        total_tokens=sum(run_tokens),
    )
