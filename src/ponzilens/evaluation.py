"""Batch detection over labeled corpora, confusion metrics, and overhead.

A manifest names the corpus: one row per contract with an id, a path (or
hex address, resolved through the explorer fetcher), and a binary label.
run_batch drives detection across the corpus with bounded concurrency and a
line-JSON journal: every report is appended and flushed once its contract
finishes. With `concurrency_limit` 1 that is before the next contract
starts; with more, up to that many contracts run at once and reports land
in the order they finish. An interrupted batch resumes by skipping ids the
journal already holds.

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
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .detect import DetectionReport, LlmConfig, MODE_FULL, MODES, TemplateSet, detect_contract
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
    name: str
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
    text = p.read_text()
    entries: list[ManifestEntry] = []
    if p.suffix in (".jsonl", ".ndjson") or text.lstrip().startswith("{"):
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{p}:{lineno}: invalid JSON: {exc}") from exc
            entries.append(_entry_from_row(row, f"{p}:{lineno}"))
    else:
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None or "id" not in reader.fieldnames:
            raise ValueError(f"{p}: CSV manifest needs an id,path_or_address,label header")
        for i, row in enumerate(reader, 2):
            entries.append(_entry_from_row(row, f"{p}:{i}"))
    return DatasetManifest(name=p.stem, entries=entries)


def _entry_from_row(row: dict, where: str) -> ManifestEntry:
    try:
        return ManifestEntry(
            id=str(row["id"]).strip(),
            path_or_address=str(row["path_or_address"]).strip(),
            label=str(row["label"]).strip(),
        )
    except KeyError as exc:
        raise ValueError(f"{where}: missing manifest column {exc}") from exc


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


def write_reports(reports: Iterable[DetectionReport], path: str | Path) -> Path:
    """Write reports as line-JSON, one object per contract."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_dict()) + "\n")
    return p


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

    At most cfg.concurrency_limit contracts run at once, each with its own
    capped number of two-stage chains in flight (see detect_contract), so a
    batch has up to concurrency_limit times that cap requests in flight.
    Failures stay isolated per contract: a contract whose load or pipeline
    fails yields an error report, and the batch continues. Any other
    exception out of loading or detect_contract, which is a defect, is
    reported with phase "internal" and its type and message. Each finished
    report is journaled and flushed to disk before the on_report callback
    fires, so interrupting the callback can never lose a finished contract.
    Every contract is prompted from one `templates` set (default: the
    packaged templates).

    Returns reports in manifest order.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    templates = templates or TemplateSet()
    done = read_journal(journal) if journal else {}
    labels = manifest.labels()
    done = {k: v for k, v in done.items() if k in labels}
    todo = [e for e in manifest.entries if e.id not in done]

    journal_path = Path(journal) if journal else None
    journal_fh = None
    if journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        journal_fh = journal_path.open("a")
    journal_lock = threading.Lock()

    def record(report: DetectionReport) -> None:
        if journal_fh is not None:
            with journal_lock:
                journal_fh.write(json.dumps(report.to_dict()) + "\n")
                journal_fh.flush()
        done[report.contract_id] = report
        if on_report is not None:
            on_report(report)

    def work(entry: ManifestEntry) -> DetectionReport:
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
            return detect_contract(unit, cfg, mode, repeats, templates=templates)
        except Exception as exc:  # a defect must not abort the batch; Ctrl-C still does
            return failed("internal", f"{type(exc).__name__}: {exc}")

    try:
        if cfg.concurrency_limit <= 1:
            for entry in todo:
                record(work(entry))
        else:
            with ThreadPoolExecutor(max_workers=cfg.concurrency_limit) as pool:
                pending = {pool.submit(work, e) for e in todo}
                try:
                    while pending:
                        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for fut in finished:
                            record(fut.result())
                except BaseException:
                    pool.shutdown(wait=True, cancel_futures=True)
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
    total_tokens = 0
    for report in reports:
        if not report.runs:
            continue
        walls.append(report.wall_seconds_total)
        costs.append(report.cost_total)
        for run in report.runs:
            run_tokens.append(run.input_tokens + run.output_tokens)
        total_tokens += report.tokens_total
    n = len(walls)
    return OverheadStats(
        contracts=n,
        mean_wall_seconds=statistics.fmean(walls) if walls else 0.0,
        std_wall_seconds=statistics.pstdev(walls) if walls else 0.0,
        mean_tokens_per_run=statistics.fmean(run_tokens) if run_tokens else 0.0,
        mean_cost=statistics.fmean(costs) if costs else 0.0,
        total_cost=sum(costs),
        total_tokens=total_tokens,
    )
