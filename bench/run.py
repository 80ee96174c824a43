"""The ponzilens benchmark: one workload, one run.

    python3 bench/run.py --workload monolith --seed 1 --seconds 45 --trace 0

Run it from the root of a ponzilens checkout; it imports the package from
`src/` and the AST builders and oracles from `tests/`, and exits nonzero
without a result when they are missing.

A run sets up SETUPS times (each a fresh `bench/gen.py` subprocess that
writes the seeded inputs, plus the fake chat server for `corpus_http`) and
reports the median as `setup_s`. It then measures for --seconds seconds of
pipeline time, one closed-loop client, and checks every output outside the
timed region. Times of CPU work are calibrated to host speed (set-up on
every workload, the measuring loop on `monolith`; see bench/calib.py). The
last line of standard output is one JSON object.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same loop
untraced for half the time and then traced for the other half, with timing
wrappers at the names the callers bind, and reports per-layer metrics per
contract plus the tracing overhead. Spans are written to
`.bench_out/trace_<workload>_seed<seed>.jsonl`.

Why each workload exists, and which layer metric should move which
end-to-end metric, is in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("monolith", "corpus_mock", "corpus_http")
SETUPS = 5
MODE = "full"
REPEATS = 5
LATENCY_MS = 10.0
CALIB_EVERY_S = 2.0  # pipeline seconds per calibration sample; 20k-line contracts take longer

END_TO_END = {
    "setup_s": "s",
    "contract_s.p50": "s",
    "contract_s.p90": "s",
    "contracts_per_s": "1/s",
    "source_lines_per_s": "lines/s",
    "input_tokens_per_contract": "tokens",
    "peak_rss_mb": "MB",
}

# Span name -> the per-span fields reported for it.
SPAN_FIELDS = {
    "ingest.load_source_unit": ("busy_s", "calls", "gc_s"),
    "model.lower": ("busy_s", "calls", "gc_s"),
    "hypergraph.build": ("busy_s", "calls", "gc_s"),
    "taint.default_sources": ("busy_s", "calls", "gc_s"),
    "taint.tpa": ("busy_s", "calls", "gc_s"),
    "slicing.select_functions": ("busy_s", "calls", "gc_s"),
    "slicing.combine_slices": ("busy_s", "calls", "gc_s"),
    "render.to_dot": ("busy_s", "calls", "gc_s"),
    "detect.run_static_pipeline": ("busy_s", "self_s", "calls", "gc_s"),
    "detect.build_analysis_prompt": ("busy_s", "calls", "gc_s"),
    "detect.build_detection_prompt": ("busy_s", "calls", "gc_s"),
    "detect.detect_contract": ("busy_s", "self_s", "calls", "gc_s"),
    "detect.complete": ("busy_s", "calls", "gc_s", "failed"),
    "evaluation.run_batch": ("busy_s", "self_s", "calls", "gc_s"),
}
FIELD_UNITS = {
    "busy_s": "s/contract",
    "self_s": "s/contract",
    "gc_s": "s/contract",
    "calls": "calls/contract",
    "failed": "calls/contract",
}
COUNTERS = {
    "ingest.bytes_read": "B/contract",
    "model.statements": "count/contract",
    "hypergraph.nodes": "count/contract",
    "hypergraph.edges": "count/contract",
    "taint.tainted": "count/contract",
    "taint.taint_edges": "count/contract",
    "slicing.functions_selected": "count/contract",
    "slicing.combined_bytes": "B/contract",
    "render.dot_bytes": "B/contract",
    "evaluation.journal_bytes": "B/contract",
}
PER_LAYER = {
    **{f"{span}.{f}": FIELD_UNITS[f] for span, fields in SPAN_FIELDS.items() for f in fields},
    **COUNTERS,
    "detect.complete.client_s": "s/contract",
    "backend.requests": "count/contract",
    "backend.connections": "count/contract",
    "backend.busy_s": "s/contract",
    "gc.pause_s": "s/contract",
    "gc.collections": "count/contract",
    "trace.overhead_frac": "frac",
}

_NEEDED = ("src/ponzilens/__init__.py", "tests/astgen.py", "tests/oracles.py", "tests/dotcheck.py")
_missing = [p for p in _NEEDED if not (ROOT / p).is_file()]
if _missing:
    raise SystemExit(f"bench: {', '.join(_missing)} not found; run from a ponzilens checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
# The fake server is on loopback; never route it through a proxy.
os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

import dotcheck  # noqa: E402
import oracles  # noqa: E402
from ponzilens import detect, evaluation, ingest  # noqa: E402

from calib import Calibration  # noqa: E402
from spans import Tracer  # noqa: E402


def _trace_targets() -> list:
    """Every wrapped call site, at the module attribute its caller binds."""
    bytes_read = lambda _out, path: {"ingest.bytes_read": os.path.getsize(path)}
    return [
        (ingest, "load_source_unit", "ingest.load_source_unit", bytes_read),
        (evaluation, "load_source_unit", "ingest.load_source_unit", bytes_read),
        (detect, "lower", "model.lower", lambda models, _: {
            "model.statements": sum(len(f.statements) for m in models for f in m.functions)}),
        (detect, "build", "hypergraph.build", lambda h, _: {
            "hypergraph.nodes": len(h.nodes()), "hypergraph.edges": len(h.all_edges())}),
        (detect, "default_sources", "taint.default_sources", None),
        (detect, "tpa", "taint.tpa", lambda t, _: {
            "taint.tainted": len(t.tainted), "taint.taint_edges": len(t.taint_edges)}),
        (detect, "select_functions", "slicing.select_functions", lambda sel, _: {
            "slicing.functions_selected": len(sel)}),
        (detect, "combine_slices", "slicing.combine_slices", lambda b, _: {
            "slicing.combined_bytes": b.stats.combined_bytes}),
        (detect, "to_dot", "render.to_dot", lambda d, _: {"render.dot_bytes": len(d.text.encode())}),
        (detect, "run_static_pipeline", "detect.run_static_pipeline", None),
        (detect, "build_analysis_prompt", "detect.build_analysis_prompt", None),
        (detect, "build_detection_prompt", "detect.build_detection_prompt", None),
        (detect, "complete", "detect.complete", None),
        (evaluation, "detect_contract", "detect.detect_contract", None),
        (evaluation, "run_batch", "evaluation.run_batch", None),
    ]


@dataclass
class Tally:
    """What one measuring phase saw, one entry per contract."""

    walls: list[float] = field(default_factory=list)
    lines: int = 0
    tokens: int = 0
    failed: int = 0
    measured_s: float = 0.0
    journal_bytes: int = 0

    def add(self, wall: float, lines: int, tokens: int, ok: bool) -> None:
        self.walls.append(wall)
        self.lines += lines
        self.tokens += tokens
        self.failed += not ok


class _TimeUp(Exception):
    """Raised from run_batch's report callback when the time budget is spent."""


class Monolith:
    """One huge contract per call, static pipeline plus prompt, no backend."""

    def __init__(self, inputs: Path):
        self.paths = sorted(inputs.glob("mono_*.json"))
        self.expected: dict[Path, str | None] = {}

    def measure(self, seconds: float, tally: Tally, tracer: Tracer | None, calib: Calibration | None = None) -> None:
        i = 0
        while tally.measured_s < seconds:
            path = self.paths[i % len(self.paths)]
            i += 1
            gc.collect()
            started = perf_counter()
            unit = ingest.load_source_unit(path)
            art = detect.run_static_pipeline(unit, MODE)
            prompt = detect.build_analysis_prompt(art.bundle, art.dot, MODE)
            wall = perf_counter() - started
            tally.measured_s += wall
            if tracer is not None:
                tracer.contract += 1
            tally.add(wall, unit.source_text.count("\n"), prompt.token_estimate, self.check(path, art, prompt))
            del unit, art, prompt  # keep this contract out of the next one's memory and GC
            if calib is not None and len(calib.samples) <= tally.measured_s / CALIB_EVERY_S:
                calib.sample()

    def check(self, path: Path, art, prompt) -> bool:
        """The first output per file against the oracles, later ones against it."""
        digest = hashlib.sha256(prompt.rendered.encode()).hexdigest()
        if path not in self.expected:
            want = [
                f"{c}.{f}"
                for c, f in oracles.selection_oracle(art.models, set(art.taint.tainted), True)
            ]
            edges = Counter(
                (".".join(a.path), ".".join(b.path)) for a, b in art.taint.taint_edges
            )
            ok = (
                list(art.bundle.selected) == want
                and Counter(dotcheck.parse_dot(art.dot.text).edges) == edges
                and art.dot.text in prompt.rendered
            )
            self.expected[path] = digest if ok else None
        return self.expected[path] == digest

    def digests(self) -> dict[str, str | None]:
        return {path.name: digest for path, digest in self.expected.items()}


class Corpus:
    """A labelled corpus through run_batch, in passes, one closed-loop client."""

    def __init__(self, inputs: Path, cfg: detect.LlmConfig):
        self.cfg = cfg
        self.journal = inputs / "journal.jsonl"
        self.manifest = evaluation.load_manifest(inputs / "manifest.csv")
        self.labels = self.manifest.labels()
        self.lines = {}
        for e in self.manifest.entries:
            (source,) = json.loads(Path(e.path_or_address).read_text())["sources"].values()
            self.lines[e.id] = source["content"].count("\n")
        self.seen: dict[str, str] = {}

    def measure(self, seconds: float, tally: Tally, tracer: Tracer | None, calib: Calibration | None = None) -> None:
        while tally.measured_s < seconds:
            budget = seconds - tally.measured_s
            reports: list = []
            stamps: list[float] = []

            def on_report(report) -> None:
                stamps.append(perf_counter())
                reports.append(report)
                if tracer is not None:
                    tracer.contract += 1
                if stamps[-1] - started >= budget:
                    raise _TimeUp

            self.journal.unlink(missing_ok=True)
            gc.collect()
            started = perf_counter()
            try:
                evaluation.run_batch(
                    self.manifest, self.cfg, MODE, REPEATS, journal=self.journal, on_report=on_report
                )
            except _TimeUp:
                pass
            tally.measured_s += perf_counter() - started
            tally.journal_bytes += self.journal.stat().st_size
            for prev, stamp, report, ok in zip([started, *stamps], stamps, reports, self.check(reports)):
                tokens = sum(run.input_tokens for run in report.runs)
                tally.add(stamp - prev, self.lines[report.contract_id], tokens, ok)

    def check(self, reports: list) -> list[bool]:
        """Verdict equals label, no error, and the same report as last time."""
        right = [
            r.error is None and r.final_verdict is (self.labels[r.contract_id] == evaluation.LABEL_POSITIVE)
            for r in reports
        ]
        metrics = evaluation.compute_metrics(self.manifest, reports)
        if metrics.tp + metrics.tn != sum(right):
            return [False] * len(reports)
        return [ok and self._same_as_before(r) for ok, r in zip(right, reports)]

    def _same_as_before(self, report) -> bool:
        doc = report.to_dict()
        for run in doc["runs"]:
            run["wall_seconds"] = 0.0  # the HTTP backend records real time
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        return self.seen.setdefault(report.contract_id, digest) == digest

    def digests(self) -> dict[str, str | None]:
        return dict(self.seen)


class Server:
    """The fake chat server in its own process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fakechat.py"), "--latency-ms", str(LATENCY_MS)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.strip():
            self.close()
            raise RuntimeError("fake chat server did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup(
    workload: str, seed: int, work: Path, scale: float, calib: Calibration | None
) -> tuple[list[float], Path, Server | None]:
    """Set up SETUPS times from scratch; keep the last inputs and server."""
    times: list[float] = []
    server = None
    for k in range(SETUPS):
        if server is not None:
            server.close()
        inputs = work / f"inputs{k}"
        started = perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(inputs), "--scale", str(scale)],
            check=True,
            cwd=ROOT,
        )
        if workload == "corpus_http":
            server = Server()
        times.append(perf_counter() - started)
        if calib is not None:
            calib.sample()
        if k + 1 < SETUPS:
            shutil.rmtree(inputs)
    return times, inputs, server


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


@dataclass
class Outcome:
    result: dict
    notes: list[str]
    digests: dict[str, str | None]  # output digest per input, for same-seed checks


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    """One benchmark run; `scale` below 1 shrinks the inputs for the self-check."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    server = None
    # Set-up is CPU work on every workload, measuring only on monolith; the
    # end-to-end times of CPU work are calibrated to host speed (calib.py).
    setup_cal = None if trace else Calibration()
    measure_cal = Calibration() if workload == "monolith" and not trace else None
    try:
        setup_times, inputs, server = setup(workload, seed, work, scale, setup_cal)
        if workload == "monolith":
            load = Monolith(inputs)
        else:
            cfg = detect.LlmConfig()
            if server is not None:
                cfg = detect.LlmConfig(backend=detect.BACKEND_LOCAL, endpoint=server.url + "/v1/chat/completions")
            load = Corpus(inputs, cfg)
        if not trace:
            tally = Tally()
            load.measure(seconds, tally, None, measure_cal)
            metrics, notes = _end_to_end(tally, setup_times, setup_cal, measure_cal)
            measured = [tally]
        else:
            untraced, traced = Tally(), Tally()
            load.measure(seconds / 2, untraced, None)
            tracer = Tracer()
            before = server.stats() if server else None
            tracer.install(_trace_targets())
            try:
                load.measure(seconds / 2, traced, tracer)
            finally:
                tracer.uninstall()
            after = server.stats() if server else None
            tracer.write(ROOT / ".bench_out" / f"trace_{workload}_seed{seed}.jsonl")
            metrics, notes = _per_layer(untraced, traced, tracer, before, after)
            measured = [untraced, traced]
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted = sum(len(t.walls) for t in measured)
    failed = sum(t.failed for t in measured)
    notes.append(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} contracts)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return Outcome(result, notes, load.digests())


def _end_to_end(
    t: Tally, setup_times: list[float], setup_cal: Calibration | None, measure_cal: Calibration | None
) -> tuple[dict, list[str]]:
    """End-to-end metrics; times are calibrated when a calibration is given."""
    n = len(t.walls)
    setup_k = setup_cal.factor() if setup_cal else 1.0
    k = measure_cal.factor() if measure_cal else 1.0
    p90 = _quantile(t.walls, 0.9)
    values = {
        "setup_s": statistics.median(setup_times) * setup_k,
        "contract_s.p50": _quantile(t.walls, 0.5) * k,
        "contract_s.p90": p90 * k,
        "contracts_per_s": n / (t.measured_s * k),
        "source_lines_per_s": t.lines / (t.measured_s * k),
        "input_tokens_per_contract": t.tokens / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s median of {len(setup_times)}: " + ", ".join(f"{s:.3f}" for s in setup_times),
        f"contract_s samples {n}, beyond p90 {sum(w > p90 for w in t.walls)}",
    ]
    for name, cal in (("setup", setup_cal), ("measuring", measure_cal)):
        if cal is not None:
            notes.append(f"{name} times x{cal.factor():.4f}: calibration kernel mean "
                         f"{statistics.fmean(cal.samples):.4f}s over {len(cal.samples)} samples")
    notes.append(f"uncalibrated: setup_s {statistics.median(setup_times):.4f}, "
                 f"contract_s.p50 {_quantile(t.walls, 0.5):.4f}, contracts_per_s {n / t.measured_s:.4f}")
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, notes


def _per_layer(untraced: Tally, traced: Tally, tracer: Tracer, before, after) -> tuple[dict, list[str]]:
    n = len(traced.walls)
    totals = tracer.totals()
    values: dict[str, float] = {}
    for span, fields in SPAN_FIELDS.items():
        row = totals.get(span, {})
        for f in fields:
            values[f"{span}.{f}"] = row.get(f, 0) / n
    counts = tracer.counters + Counter({"evaluation.journal_bytes": traced.journal_bytes})
    for name in COUNTERS:
        values[name] = counts[name] / n
    backend = {k: after[k] - before[k] for k in after} if after else {"requests": 0, "connections": 0, "busy_s": 0.0}
    for k, v in backend.items():
        values[f"backend.{k}"] = v / n
    values["detect.complete.client_s"] = values["detect.complete.busy_s"] - values["backend.busy_s"]
    values["gc.pause_s"] = tracer.gc_pause_s / n
    values["gc.collections"] = tracer.gc_collections / n
    values["trace.overhead_frac"] = (traced.measured_s / n) / (untraced.measured_s / len(untraced.walls)) - 1
    notes = [f"traced contracts {n}, wall {traced.measured_s:.3f}s; self-time share of traced wall:"]
    for span, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        notes.append(f"  {span:32s} {100 * row['self_s'] / traced.measured_s:6.2f}%")
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ponzilens benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.notes:
        print(line)
    print(json.dumps(outcome.result))
    return 0 if outcome.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
