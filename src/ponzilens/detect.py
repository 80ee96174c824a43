"""Two-stage prompt protocol over a chat-completion backend.

Stage one hands the model the code slice (plus, in full mode, the rendered
taint graph) and asks for a stepwise analysis. Stage two hands the model
that analysis next to a Ponzi definition and asks for a bare true/false.
The contract-level verdict is a majority vote over repeated two-stage runs,
with ties broken toward true: for a screening tool, the expensive mistake
is waving a scheme through.

Backends:
  * http: POST a chat-completion payload to an endpoint, hosted (keyed, e.g.
    GPT-3.5-turbo) or self-hosted (keyless, e.g. LLaMA 3 or Mistral), and
    read choices[0].message.content plus usage token counts. The API key is
    sent as a bearer token exactly when one is set. Each request goes
    through the package's one transport (ponzilens.transport): one HTTP/1.1
    exchange on a kept-alive connection, http or https endpoints only,
    proxies from the environment, no redirects followed;
  * mock: a deterministic offline stand-in whose reply is a pure function
    of the prompt text; it exists so end-to-end behavior is testable
    byte-for-byte without network access. Its heuristic is matched to the
    packaged templates.

Templates are plain text with $-placeholders ($code, $graph, $analysis,
$definition), so braces in Solidity code and DOT never collide with the
substitution syntax. The template version recorded in reports names the
analysis and detection templates, e.g. "analysis_full_v1+detection_v1";
see TemplateSet.version.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from string import Template
from typing import NamedTuple

from . import transport
from .errors import (
    AuthError,
    BackendUnavailable,
    ContextOverflow,
    EmptyInput,
    PonzilensError,
    UnparseableVerdict,
)
from .hypergraph import HypernodeGraph, build
from .ingest import SourceUnit, compile_source
from .model import ContractModel, lower
from .render import DotDocument, to_dot
from .slicing import SliceBundle, SliceStats, combine_slices, select_functions
from .taint import TaintSubgraph, default_sources, tpa

API_KEY_ENV = "PONZILENS_API_KEY"

MODE_FULL = "full"
MODE_NO_TAINT = "no_taint"
MODE_RAW = "raw"
MODES = (MODE_FULL, MODE_NO_TAINT, MODE_RAW)

BACKEND_HTTP = "http"
BACKEND_MOCK = "mock"
BACKENDS = (BACKEND_HTTP, BACKEND_MOCK)
# Hosted and self-hosted models speak the same protocol; both names remain
# importable.
BACKEND_OPENAI = BACKEND_LOCAL = BACKEND_HTTP

_VERDICT_RE = re.compile(r"\b(true|false)\b", re.IGNORECASE)

# The most two-stage chains of one contract in flight at once, so a large
# `repeats` never starts a thread per repeat. A mock batch runs one chain at
# a time; an HTTP batch's contracts share one budget of concurrency_limit
# times min(repeats, _MAX_CHAINS) chains in flight.
_MAX_CHAINS = 16


def estimate_tokens(text: str) -> int:
    """Cheap length-proportional token estimate (about 4 chars per token)."""
    return max(1, (len(text) + 3) // 4)


# --- templates ----------------------------------------------------------------


class TemplateSet:
    """Versioned prompt templates, from a directory or the packaged set.

    Every template is read when the set is made: from `directory` when the
    file is there, else from the package. So every contract of a batch
    sharing one set sees the same text. A directory that does not exist, or
    holds none of the four `<stem>.txt` files, is a ValueError: it would
    otherwise leave every prompt packaged without a word.
    """

    ANALYSIS_FULL = "analysis_full_v1"
    ANALYSIS_CODE = "analysis_code_v1"
    DETECTION = "detection_v1"
    DEFINITION = "ponzi_definition_v1"
    STEMS = (ANALYSIS_FULL, ANALYSIS_CODE, DETECTION, DEFINITION)
    # The analysis template each mode prompts with.
    ANALYSIS = {MODE_FULL: ANALYSIS_FULL, MODE_NO_TAINT: ANALYSIS_CODE, MODE_RAW: ANALYSIS_CODE}

    def __init__(self, directory: str | Path | None = None):
        here = Path(directory) if directory else None
        self._custom = {s for s in self.STEMS if here and (here / f"{s}.txt").exists()}
        if here and not self._custom:
            names = ", ".join(f"{s}.txt" for s in self.STEMS)
            held = f"holds none of {names}" if here.is_dir() else "is not a directory"
            raise ValueError(f"template directory {here} {held}")
        packaged = resources.files("ponzilens.templates")
        self._texts = {
            s: ((here if s in self._custom else packaged) / f"{s}.txt").read_text()
            for s in self.STEMS
        }

    def load(self, stem: str) -> str:
        return self._texts[stem]

    def version(self, mode: str) -> str:
        """The template version a report of `mode` records: its analysis
        and detection stems. A part whose text came from the directory (for
        detection, its template or the definition) is marked with a short
        sha256 of the text, so a resume tells other templates apart."""

        def part(*stems: str) -> str:
            if self._custom.isdisjoint(stems):
                return stems[0]
            text = "\0".join(self._texts[s] for s in stems)
            return f"{stems[0]}@{hashlib.sha256(text.encode()).hexdigest()[:12]}"

        return f"{part(self.ANALYSIS[mode])}+{part(self.DETECTION, self.DEFINITION)}"


@dataclass(frozen=True)
class PromptParts:
    """The raw ingredients that went into one rendered prompt."""

    code: str = ""
    taint_dot: str = ""
    prior_analysis: str = ""
    ponzi_definition: str = ""


@dataclass(frozen=True)
class PromptBundle:
    stage: str  # "analysis" | "detection"
    rendered: str
    parts: PromptParts
    template_version: str
    token_estimate: int


def build_analysis_prompt(
    bundle: SliceBundle,
    dot: DotDocument | None,
    mode: str,
    templates: TemplateSet | None = None,
) -> PromptBundle:
    """Stage-one prompt from a slice bundle and (in full mode) a DOT graph."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    templates = templates or TemplateSet()
    code = bundle.combined_text
    if bundle.header:
        code = bundle.header + "\n\n" + code
    if not code.strip():
        raise EmptyInput("nothing to analyze: empty code slice")
    graph = ""
    if mode == MODE_FULL:
        if dot is None:
            raise ValueError("full mode needs a rendered taint graph")
        graph = dot.text
    stem = TemplateSet.ANALYSIS[mode]
    rendered = Template(templates.load(stem)).substitute(code=code, graph=graph)
    return PromptBundle(
        stage="analysis",
        rendered=rendered,
        parts=PromptParts(code=code, taint_dot=graph),
        template_version=stem,
        token_estimate=estimate_tokens(rendered),
    )


def build_detection_prompt(analysis: str, templates: TemplateSet | None = None) -> PromptBundle:
    """Stage-two prompt pairing the prior analysis with the set's Ponzi
    definition.

    The rendered prompt ends with the true/false instruction so the answer
    token lands last.
    """
    templates = templates or TemplateSet()
    definition = templates.load(TemplateSet.DEFINITION).strip()
    if not analysis.strip():
        raise EmptyInput("empty analysis text")
    if not definition.strip():
        raise EmptyInput("empty definition text")
    stem = TemplateSet.DETECTION
    rendered = Template(templates.load(stem)).substitute(
        definition=definition, analysis=analysis
    )
    return PromptBundle(
        stage="detection",
        rendered=rendered,
        parts=PromptParts(prior_analysis=analysis, ponzi_definition=definition),
        template_version=stem,
        token_estimate=estimate_tokens(rendered),
    )


# --- backends -----------------------------------------------------------------


@dataclass
class LlmConfig:
    """Backend and accounting settings for one detection campaign."""

    backend: str = BACKEND_MOCK
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_output_tokens: int = 1024
    price_per_1k_input: float = 0.0
    price_per_1k_output: float = 0.0
    max_attempts: int = 3
    # An HTTP batch has at most concurrency_limit * min(repeats, 16) runs in
    # flight, shared by concurrency_limit + 1 open contracts, so one contract
    # prepares while the others' runs are on the wire (a mock batch runs
    # serially). Three need kept-alive connections: on new ones they gained
    # nothing over two. Kept alive, three took a 2-vCPU client, against a
    # server adding 10 ms a call, from 68 to 87 contracts/s, for 2.6 % more
    # peak memory; four held 6 % more.
    concurrency_limit: int = 3
    timeout: float = 60.0
    api_key: str = ""
    context_window: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def resolved_api_key(self) -> str:
        return os.environ.get(API_KEY_ENV) or self.api_key

    @property
    def model_label(self) -> str:
        """The model name reports record; mock runs are marked as such."""
        return f"mock:{self.model}" if self.backend == BACKEND_MOCK else self.model


@dataclass(frozen=True)
class Completion:
    text: str
    input_tokens: int
    output_tokens: int
    wall_seconds: float


# The mock analysis embeds one of these markers; the mock detection stage
# keys its verdict off which marker it finds in the prior analysis.
_PONZI_HINT = "pattern check: participant-funded payout loop detected"
_CLEAN_HINT = "pattern check: no participant-funded payout loop found"
_DETECTION_MARK = "Definition of a Ponzi scheme:"

_LOOP_RE = re.compile(r"\b(?:while|for)\s*\(")
# Anchored at a word start: a match inside a word implies one from its
# start, and an unanchored \w+ retries from every offset of a long word.
_INDEXED_PAYOUT_RE = re.compile(
    r"(?<!\w)\w+\s*\[[^\]]*\]\s*(?:\.\w+)*\s*\.(?:send|transfer|call)\s*[({]"
)
_WRAPPED_PAYOUT_RE = re.compile(
    r"payable\s*\(\s*\w+\s*\[[^\]]*\][^)]*\)\s*\.(?:send|transfer|call)\s*[({]"
)


def _mock_complete(prompt: str) -> Completion:
    """Deterministic offline completion; wall time is reported as zero so
    repeated runs serialize identically."""
    input_tokens = estimate_tokens(prompt)
    if _DETECTION_MARK in prompt:
        verdict = "true" if _PONZI_HINT in prompt else "false"
        text = f"Weighing the analysis against the definition: {verdict}"
    else:
        looped = bool(_LOOP_RE.search(prompt))
        indexed_payout = bool(
            _INDEXED_PAYOUT_RE.search(prompt) or _WRAPPED_PAYOUT_RE.search(prompt)
        )
        n_functions = len(re.findall(r"\bfunction\s+\w*|\bconstructor\s*\(", prompt))
        hint = _PONZI_HINT if (looped and indexed_payout) else _CLEAN_HINT
        text = (
            f"Reviewed {n_functions} function definition(s). Deposits enter "
            f"through payable entry points and are tracked in contract state; "
            f"outbound transfers were checked against participant-collection "
            f"indexing. {hint}."
        )
    return Completion(
        text=text,
        input_tokens=input_tokens,
        output_tokens=estimate_tokens(text),
        wall_seconds=0.0,
    )


def complete(prompt: PromptBundle, cfg: LlmConfig) -> Completion:
    """Run one prompt against the configured backend.

    A prompt whose token estimate exceeds cfg.context_window (when set) is
    ContextOverflow under either backend, before anything is sent.

    The HTTP backend sends each request through ponzilens.transport, on a
    kept-alive connection, to an http or https endpoint only. It retries on
    transient failures (5xx, 429, transport errors) up to cfg.max_attempts
    times, waiting first by `transport.pause`: what the reply's Retry-After
    asks for, else a full-jitter draw, so the concurrent chains of a
    contract do not retry in lockstep. A malformed reply is a transport
    error and retried too. Auth rejections, context overflows and a request
    the transport refuses to send (a header value with a newline, say)
    raise immediately; the last names neither the header nor the key. Each
    token count falls back to its estimate when the server reports no usage
    or a null count. A reply whose content is not a string, or whose usage
    is not an object of integer counts, is BackendUnavailable.
    """
    if cfg.context_window is not None and prompt.token_estimate > cfg.context_window:
        raise ContextOverflow(
            f"prompt estimate {prompt.token_estimate} exceeds context window "
            f"{cfg.context_window}"
        )
    if cfg.backend == BACKEND_MOCK:
        return _mock_complete(prompt.rendered)
    if not transport.is_http_url(cfg.endpoint):
        raise BackendUnavailable(f"endpoint {cfg.endpoint!r} is not an http or https URL")
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt.rendered}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }
    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise BackendUnavailable(f"request payload is not valid JSON: {exc}") from exc
    headers = {"Content-Type": "application/json"}
    api_key = cfg.resolved_api_key()
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    last_error: Exception | None = None
    asked: float | None = None
    for attempt in range(cfg.max_attempts):
        if attempt:
            transport.pause(attempt, asked)
        asked = None
        started = time.perf_counter()
        try:
            status, reply_headers, reply = transport.request(
                cfg.endpoint, body, headers, timeout=cfg.timeout
            )
        except transport.REFUSED as exc:
            # Its message can quote the Authorization header, and so the key.
            raise BackendUnavailable(
                f"request refused before sending ({type(exc).__name__}): the endpoint "
                "URL or a header value, such as the API key, holds a character HTTP "
                "does not allow, e.g. a trailing newline"
            ) from None
        except transport.ERRORS as exc:
            last_error = exc
            continue
        if status != 200:
            text = reply.decode("utf-8", "replace")
            if status in (401, 403):
                hint = "" if api_key else f"; no API key was sent, set {API_KEY_ENV}"
                raise AuthError(f"backend rejected credentials (HTTP {status}){hint}")
            if status == 400 and "context" in text.lower():
                raise ContextOverflow(text[:300])
            error = BackendUnavailable(f"HTTP {status}: {text[:200]}")
            if status == 429 or status >= 500:
                asked = transport.retry_after(reply_headers.get("Retry-After"))
                last_error = error
                continue
            raise error
        wall = time.perf_counter() - started
        try:
            data = json.loads(reply)
            text = data["choices"][0]["message"]["content"]
            usage = {} if data.get("usage") is None else data["usage"]
            if not isinstance(text, str) or not isinstance(usage, dict):
                raise TypeError("content must be a string and usage an object")
            reported = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
            estimated = (prompt.token_estimate, estimate_tokens(text))
            input_tokens, output_tokens = (
                int(e if r is None else r) for r, e in zip(reported, estimated)
            )
        except (ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
            raise BackendUnavailable(f"malformed completion reply: {exc}") from exc
        return Completion(
            text=text,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            wall_seconds=wall,
        )
    raise BackendUnavailable(
        f"backend unreachable after {cfg.max_attempts} attempts: {last_error}"
    )


def parse_verdict(text: str) -> bool:
    """Recover the verdict: the last standalone true/false token wins."""
    matches = _VERDICT_RE.findall(text)
    if not matches:
        raise UnparseableVerdict(f"no true/false token in reply: {text[:120]!r}")
    return matches[-1].lower() == "true"


# --- reports ------------------------------------------------------------------


def _checked(data: dict, key: str, kind: type) -> object:
    """data[key] if it is absent, null or a `kind`; a ValueError otherwise,
    so a damaged journal line is not read as a report."""
    value = data.get(key)
    if value is None or isinstance(value, kind):
        return value
    raise ValueError(f"{key} must be null or {kind.__name__}, not {value!r}")


@dataclass
class RunRecord:
    """One two-stage detection run.

    wall_seconds is the backend time of the run's two calls. A report's runs
    can be in flight together, so their sum can exceed the elapsed time.
    """

    verdict: bool | None
    analysis_text: str
    input_tokens: int
    output_tokens: int
    wall_seconds: float
    cost: float
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            verdict=_checked(data, "verdict", bool),
            analysis_text=data.get("analysis_text", ""),
            input_tokens=int(data.get("input_tokens", 0)),
            output_tokens=int(data.get("output_tokens", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cost=float(data.get("cost", 0.0)),
            error=data.get("error"),
        )


class Settings(NamedTuple):
    """What produced a report: its mode and model label and, for a report
    with runs, its template version and run count (None without runs). A
    batch resumes a journaled report only when these match its own."""

    mode: str
    model: str
    template_version: str | None = None
    runs: int | None = None

    def mismatch(self, want: "Settings") -> str | None:
        """The first field that both record and that differs, as text;
        None when they agree."""
        for name, have, need in zip(self._fields, self, want):
            if None not in (have, need) and have != need:
                return f"{name} {have!r}, not {need!r}"
        return None


@dataclass
class DetectionReport:
    """Everything recorded about one contract's detection."""

    contract_id: str
    mode: str
    model: str
    template_version: str
    final_verdict: bool | None = None
    runs: list[RunRecord] = field(default_factory=list)
    error: dict | None = None  # {"phase": ..., "message": ...}
    slice_stats: dict | None = None

    @property
    def settings(self) -> Settings:
        if not self.runs:
            return Settings(self.mode, self.model)
        return Settings(self.mode, self.model, self.template_version, len(self.runs))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DetectionReport":
        if not isinstance(data["contract_id"], str):
            raise ValueError(f"contract_id must be a string, not {data['contract_id']!r}")
        return cls(
            contract_id=data["contract_id"],
            mode=data.get("mode", MODE_FULL),
            model=data.get("model", ""),
            template_version=data.get("template_version", ""),
            runs=[RunRecord.from_dict(r) for r in data.get("runs", [])],
            final_verdict=_checked(data, "final_verdict", bool),
            error=_checked(data, "error", dict),
            slice_stats=_checked(data, "slice_stats", dict),
        )


def run_cost(cfg: LlmConfig, input_tokens: int, output_tokens: int) -> float:
    return (
        input_tokens * cfg.price_per_1k_input
        + output_tokens * cfg.price_per_1k_output
    ) / 1000.0


def majority_verdict(runs: list[RunRecord]) -> bool | None:
    """Majority over parseable runs; ties go to true; all-unparseable is None."""
    votes = [r.verdict for r in runs if r.verdict is not None]
    if not votes:
        return None
    trues = sum(1 for v in votes if v)
    return trues >= len(votes) - trues


@dataclass
class StaticArtifacts:
    """Intermediate products of the static pipeline for one unit."""

    models: list[ContractModel]
    graph: HypernodeGraph | None
    taint: TaintSubgraph | None
    bundle: SliceBundle
    dot: DotDocument | None


def _raw_bundle(source_text: str) -> SliceBundle:
    return SliceBundle(
        selected=(),
        combined_text=source_text,
        per_function={},
        header="",
        stats=SliceStats(
            functions_total=0,
            functions_selected=0,
            combined_bytes=len(source_text.encode("utf-8")),
        ),
    )


def run_static_pipeline(
    unit: SourceUnit,
    mode: str = MODE_FULL,
    *,
    include_constructors: bool = True,
    cluster: bool = False,
) -> StaticArtifacts:
    """Lower, build, propagate, slice, and (full mode) render one unit;
    `cluster` is `to_dot`'s.

    Raw mode skips static analysis entirely: the whole source text stands
    in for the slice, and no AST is required.
    """
    if mode == MODE_RAW:
        if not unit.source_text.strip():
            raise EmptyInput("raw mode needs source text")
        return StaticArtifacts([], None, None, _raw_bundle(unit.source_text), None)
    models = lower(unit)
    graph = build(models)
    taint = tpa(graph, default_sources(graph))
    selected = select_functions(
        taint, graph, models, include_constructors=include_constructors
    )
    bundle = combine_slices(selected, models, unit.source_text)
    dot = to_dot(taint, graph, cluster=cluster) if mode == MODE_FULL else None
    return StaticArtifacts(models, graph, taint, bundle, dot)


def detect_contract(
    unit: SourceUnit,
    cfg: LlmConfig,
    mode: str = MODE_FULL,
    repeats: int = 5,
    *,
    templates: TemplateSet | None = None,
    slots: threading.Semaphore | None = None,
) -> DetectionReport:
    """Run the full two-stage protocol on one unit.

    Pipeline failures never raise: they are captured in the report's error
    field with the phase that failed, and the report carries no runs. Each
    successful report carries exactly `repeats` runs; runs whose verdict
    could not be parsed keep verdict None and are excluded from the vote.

    The runs are independent samples. With the http backend up to
    min(repeats, 16) of them are in flight together, never two on one
    connection; they are recorded in index order whatever order they finish
    in, and when several fail, the lowest-index failure is the one reported.
    Runs already in flight when one fails still finish, so their requests
    are spent. The mock backend runs them one after another. With `slots`,
    each run holds one of its slots for both its stages, so the contracts
    that share it share one bound on requests in flight: run_batch gives
    the contracts of an HTTP batch one.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    templates = templates or TemplateSet()
    report = DetectionReport(
        contract_id=unit.id,
        mode=mode,
        model=cfg.model_label,
        template_version="",
    )

    phase = "ingest"
    try:
        if unit.ast_json is None and mode != MODE_RAW:
            compile_source(unit)
        phase = "static"
        art = run_static_pipeline(unit, mode)
        report.slice_stats = {
            "functions_total": art.bundle.stats.functions_total,
            "functions_selected": art.bundle.stats.functions_selected,
            "combined_bytes": art.bundle.stats.combined_bytes,
        }
        phase = "prompt"
        bundle = art.bundle
        if mode != MODE_RAW and not bundle.combined_text.strip() and not bundle.header:
            # Nothing taint-adjacent to slice. Fall back to the whole source
            # so an untainted contract still gets a verdict instead of an
            # error; the recorded slice_stats keep the honest zero.
            if unit.source_text.strip():
                bundle = _raw_bundle(unit.source_text)
        analysis_prompt = build_analysis_prompt(bundle, art.dot, mode, templates)
        report.template_version = templates.version(mode)
    except PonzilensError as exc:
        report.error = {"phase": phase, "message": str(exc)}
        return report

    held = nullcontext() if slots is None else slots

    def chain(_index: int) -> RunRecord:
        with held:
            first = complete(analysis_prompt, cfg)
            detection_prompt = build_detection_prompt(first.text, templates)
            second = complete(detection_prompt, cfg)
        err: str | None = None
        try:
            verdict: bool | None = parse_verdict(second.text)
        except UnparseableVerdict as exc:
            verdict = None
            err = str(exc)
        input_tokens = first.input_tokens + second.input_tokens
        output_tokens = first.output_tokens + second.output_tokens
        return RunRecord(
            verdict=verdict,
            analysis_text=first.text,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            wall_seconds=first.wall_seconds + second.wall_seconds,
            cost=run_cost(cfg, input_tokens, output_tokens),
            error=err,
        )

    try:
        if cfg.backend == BACKEND_MOCK:
            # The mock only computes, and a pool per contract made the
            # corpus_mock benchmark's p50 35% slower on 2 vCPUs.
            runs = list(map(chain, range(repeats)))
        else:
            pool = ThreadPoolExecutor(max_workers=min(repeats, _MAX_CHAINS))
            try:
                # map yields in index order and raises the lowest-index error.
                runs = list(pool.map(chain, range(repeats)))
            finally:
                pool.shutdown(cancel_futures=True)
    except PonzilensError as exc:
        report.error = {"phase": "detect", "message": str(exc)}
        return report

    report.runs = runs
    report.final_verdict = majority_verdict(report.runs)
    if report.final_verdict is None:
        report.error = {
            "phase": "verdict",
            "message": "no run produced a parseable verdict",
        }
    return report
