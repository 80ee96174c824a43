"""Prompt construction, backend handling, and the two-stage protocol."""

from __future__ import annotations

import dataclasses
import json
import random
import re
import socket
import ssl
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

import pytest

import fixutil
import ponzilens.detect as detect_mod
import ponzilens.evaluation as evaluation_mod
import ponzilens.ingest as ingest
import ponzilens.transport as transport
import programs
from astgen import (
    Bin,
    Call,
    Contract,
    EventDef,
    Fn,
    Id,
    Lit,
    Member,
    Modifier,
    SAssign,
    SDecl,
    SEmit,
    SExpr,
    SPlaceholder,
    StateVar,
    build_unit,
)
from loopback import free_port, idle, serve
from ponzilens.detect import (
    API_KEY_ENV,
    BACKEND_LOCAL,
    BACKEND_MOCK,
    BACKEND_OPENAI,
    BACKENDS,
    MODE_FULL,
    MODE_NO_TAINT,
    MODE_RAW,
    MODES,
    Completion,
    DetectionReport,
    LlmConfig,
    PromptBundle,
    PromptParts,
    RunRecord,
    TemplateSet,
    build_analysis_prompt,
    build_detection_prompt,
    complete,
    detect_contract,
    estimate_tokens,
    majority_verdict,
    parse_verdict,
    run_cost,
    run_static_pipeline,
)
from ponzilens.errors import (
    AuthError,
    BackendUnavailable,
    ContextOverflow,
    EmptyInput,
    UnparseableVerdict,
)
from ponzilens.evaluation import (
    DatasetManifest,
    ManifestEntry,
    aggregate_overhead,
    read_journal,
    run_batch,
)
from ponzilens.ingest import SourceUnit, load_ast


def _artifacts(name: str, mode: str = MODE_FULL):
    return run_static_pipeline(fixutil.load_unit(name), mode)


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    """Retries draw their jitter from a zero schedule. The schedule, not
    time.sleep, is patched: the test servers sleep to hold requests in
    flight."""
    monkeypatch.setattr(transport, "_BACKOFF", (0.0,))


# --- tokens and cost ----------------------------------------------------------


def test_estimate_tokens():
    assert estimate_tokens("") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 400) == 100


def test_run_cost():
    cfg = LlmConfig(price_per_1k_input=0.5, price_per_1k_output=1.5)
    assert run_cost(cfg, 2000, 1000) == pytest.approx(0.5 * 2 + 1.5 * 1)
    assert run_cost(LlmConfig(), 123456, 98765) == 0.0


# --- templates ------------------------------------------------------------


def test_packaged_templates_load():
    ts = TemplateSet()
    for stem in (
        TemplateSet.ANALYSIS_FULL,
        TemplateSet.ANALYSIS_CODE,
        TemplateSet.DETECTION,
        TemplateSet.DEFINITION,
    ):
        text = ts.load(stem)
        assert text.strip()


def test_template_dir_override_with_fallback(tmp_path):
    (tmp_path / "analysis_code_v1.txt").write_text("CUSTOM $code END")
    ts = TemplateSet(tmp_path)
    assert ts.load(TemplateSet.ANALYSIS_CODE) == "CUSTOM $code END"
    # Each file is read once per set: a later edit does not show.
    (tmp_path / "analysis_code_v1.txt").write_text("EDITED $code")
    assert ts.load(TemplateSet.ANALYSIS_CODE) == "CUSTOM $code END"
    # Stems missing from the override directory come from the package.
    assert ts.load(TemplateSet.DETECTION) == TemplateSet().load(TemplateSet.DETECTION)


@pytest.mark.parametrize("kind", ["missing", "empty", "misnamed", "a file"])
def test_template_dir_without_a_template_is_refused(tmp_path, kind):
    """Such a directory would leave every prompt packaged without a word."""
    directory = tmp_path / "templates"
    if kind == "a file":
        directory.write_text("$code")
    elif kind != "missing":
        directory.mkdir()
        if kind == "misnamed":
            (directory / "analysis_full.txt").write_text("$code $graph")
    held = "is not a directory" if kind in ("missing", "a file") else "holds none of"
    with pytest.raises(ValueError, match=re.escape(f"template directory {directory} {held}")):
        TemplateSet(directory)


def test_template_version_marks_text_read_from_the_directory(tmp_path):
    packaged = TemplateSet()
    assert packaged.version(MODE_FULL) == "analysis_full_v1+detection_v1"
    assert packaged.version(MODE_RAW) == "analysis_code_v1+detection_v1"
    (tmp_path / "ponzi_definition_v1.txt").write_text("A Ponzi pays old with new.\n")
    redefined = TemplateSet(tmp_path)
    full, raw = redefined.version(MODE_FULL), redefined.version(MODE_RAW)
    # The definition is part of the detection stage's version.
    assert full.startswith("analysis_full_v1+detection_v1@")
    assert full.split("+")[1] == raw.split("+")[1] != "detection_v1"
    (tmp_path / "ponzi_definition_v1.txt").write_text("Another definition.\n")
    assert TemplateSet(tmp_path).version(MODE_FULL) != full


# --- prompt builders ------------------------------------------------------


def test_analysis_prompt_full_mode_embeds_code_and_graph():
    art = _artifacts("simple_ponzi")
    p = build_analysis_prompt(art.bundle, art.dot, MODE_FULL)
    assert p.stage == "analysis"
    assert p.template_version == "analysis_full_v1"
    assert art.bundle.combined_text in p.rendered
    assert art.dot.text in p.rendered
    assert p.parts.code.endswith(art.bundle.combined_text)
    assert p.parts.taint_dot == art.dot.text
    assert p.token_estimate == estimate_tokens(p.rendered)


def test_analysis_prompt_no_taint_mode_omits_graph():
    art = _artifacts("simple_ponzi", MODE_NO_TAINT)
    assert art.dot is None
    p = build_analysis_prompt(art.bundle, None, MODE_NO_TAINT)
    assert p.template_version == "analysis_code_v1"
    assert "digraph" not in p.rendered
    assert art.bundle.combined_text in p.rendered
    assert p.parts.taint_dot == ""


def test_analysis_prompt_header_precedes_code():
    art = _artifacts("pool")
    p = build_analysis_prompt(art.bundle, art.dot, MODE_FULL)
    assert art.bundle.header in p.rendered
    assert p.rendered.index(art.bundle.header) < p.rendered.index("function deposit()")


def test_analysis_prompt_full_requires_dot():
    art = _artifacts("simple_ponzi")
    with pytest.raises(ValueError):
        build_analysis_prompt(art.bundle, None, MODE_FULL)


def test_analysis_prompt_rejects_unknown_mode():
    art = _artifacts("simple_ponzi")
    with pytest.raises(ValueError):
        build_analysis_prompt(art.bundle, art.dot, "verbose")


def test_analysis_prompt_empty_slice_raises():
    art = _artifacts("hollow", MODE_NO_TAINT)
    assert not art.bundle.combined_text
    with pytest.raises(EmptyInput):
        build_analysis_prompt(art.bundle, None, MODE_NO_TAINT)


def test_dollar_signs_in_code_survive_substitution():
    unit = SourceUnit(
        id="dollars",
        source_text="contract D { string s = \"$code ${graph} $$\"; }",
    )
    art = run_static_pipeline(unit, MODE_RAW)
    p = build_analysis_prompt(art.bundle, None, MODE_RAW)
    assert "$code ${graph} $$" in p.rendered


def test_detection_prompt_pairs_analysis_with_definition(tmp_path):
    (tmp_path / "ponzi_definition_v1.txt").write_text("A Ponzi pays old with new.\n")
    p = build_detection_prompt("The code pools deposits.", TemplateSet(tmp_path))
    assert p.stage == "detection"
    assert p.template_version == "detection_v1"
    assert p.rendered.startswith("Definition of a Ponzi scheme:")
    assert "A Ponzi pays old with new." in p.rendered
    assert "The code pools deposits." in p.rendered
    assert p.parts.prior_analysis == "The code pools deposits."
    assert p.parts.ponzi_definition == "A Ponzi pays old with new."


def test_detection_prompt_defaults_to_packaged_definition():
    p = build_detection_prompt("some analysis")
    assert p.parts.ponzi_definition == TemplateSet().load(TemplateSet.DEFINITION).strip()
    assert p.parts.ponzi_definition in p.rendered


def test_detection_prompt_rejects_empty_analysis(tmp_path):
    with pytest.raises(EmptyInput):
        build_detection_prompt("   ")
    (tmp_path / "ponzi_definition_v1.txt").write_text("   \n")
    with pytest.raises(EmptyInput):
        build_detection_prompt("analysis", TemplateSet(tmp_path))


# --- verdict parsing ------------------------------------------------------


def test_parse_verdict_basic():
    assert parse_verdict("true") is True
    assert parse_verdict("The answer is False.") is False
    assert parse_verdict("TRUE") is True


def test_parse_verdict_last_token_wins():
    assert parse_verdict("true at first glance, but ultimately false") is False
    assert parse_verdict("false positives aside: true") is True


def test_parse_verdict_requires_standalone_token():
    with pytest.raises(UnparseableVerdict):
        parse_verdict("untrue")
    with pytest.raises(UnparseableVerdict):
        parse_verdict("falsehood truthiness")
    with pytest.raises(UnparseableVerdict):
        parse_verdict("cannot tell")


# --- mock backend ---------------------------------------------------------


def test_mock_routes_stages_by_marker():
    analysis = PromptBundle(
        stage="analysis",
        rendered="function f() { while (x) { arr[i].send(1); } }",
        parts=PromptParts(),
        template_version="t",
        token_estimate=10,
    )
    first = complete(analysis, LlmConfig())
    assert "pattern check: participant-funded payout loop detected" in first.text
    assert first.wall_seconds == 0.0

    detection = build_detection_prompt(first.text)
    second = complete(detection, LlmConfig())
    assert parse_verdict(second.text) is True


def test_mock_clean_contract_reads_false():
    analysis = PromptBundle(
        stage="analysis",
        rendered="function w() { payable(msg.sender).send(amount); }",
        parts=PromptParts(),
        template_version="t",
        token_estimate=10,
    )
    first = complete(analysis, LlmConfig())
    assert "no participant-funded payout loop" in first.text
    second = complete(build_detection_prompt(first.text), LlmConfig())
    assert parse_verdict(second.text) is False


def test_mock_needs_loop_and_indexed_transfer_together():
    loop_only = "while (i < n) { total += i; }"
    indexed_only = "members[i].send(1);"
    both = loop_only + " " + indexed_only
    for text, want in ((loop_only, False), (indexed_only, False), (both, True)):
        p = PromptBundle("analysis", text, PromptParts(), "t", 1)
        hinted = "payout loop detected" in complete(p, LlmConfig()).text
        assert hinted is want


def test_mock_ignores_endpoint():
    cfg = LlmConfig(backend=BACKEND_MOCK, endpoint="http://127.0.0.1:1/nowhere")
    p = PromptBundle("analysis", "x" * 4000, PromptParts(), "t", 1000)
    out = complete(p, cfg)
    assert isinstance(out, Completion)
    assert out.input_tokens == 1000


def test_mock_checks_context_window():
    # The window binds before the backend is chosen, so a mock run sees the
    # overflow an HTTP run would.
    p = PromptBundle("analysis", "x" * 4000, PromptParts(), "t", 1000)
    with pytest.raises(ContextOverflow, match="prompt estimate 1000 exceeds context window 999"):
        complete(p, LlmConfig(context_window=999))
    assert complete(p, LlmConfig(context_window=1000)).input_tokens == 1000
    # simple_ponzi's full-mode analysis prompt is 618 estimated tokens.
    report = detect_contract(fixutil.load_unit("simple_ponzi"), LlmConfig(context_window=10))
    assert report.error == {
        "phase": "detect",
        "message": "prompt estimate 618 exceeds context window 10",
    }
    assert report.runs == [] and report.final_verdict is None


def test_mock_is_deterministic():
    p = PromptBundle("analysis", "function f() {}", PromptParts(), "t", 4)
    a = complete(p, LlmConfig())
    b = complete(p, LlmConfig())
    assert a == b


def test_mock_payout_scan_is_linear_in_a_long_word():
    # A 20k-character hex literal took seconds while the payout pattern was
    # retried from every offset of the word.
    prompt = "function f() { while (i < n) { h = 0x" + "ab" * 10_000 + "; } }"
    started = time.perf_counter()
    out = detect_mod._mock_complete(prompt)
    assert time.perf_counter() - started < 0.5
    assert "no participant-funded payout loop" in out.text


# The payout pattern before it was anchored at a word start.
_UNANCHORED_PAYOUT_RE = re.compile(
    r"\w+\s*\[[^\]]*\]\s*(?:\.\w+)*\s*\.(?:send|transfer|call)\s*[({]"
)


def test_mock_anchored_payout_pattern_finds_what_the_unanchored_one_did(monkeypatch):
    prompts = ["x9_members[i].send(1)", "0xab[i] .transfer(1)", "_a[i].x.call{value: 1}("]
    mock = detect_mod._mock_complete
    monkeypatch.setattr(detect_mod, "_mock_complete", lambda p: prompts.append(p) or mock(p))
    for name in fixutil.FIXTURE_NAMES:
        for mode in MODES:
            detect_contract(fixutil.load_unit(name), LlmConfig(), mode, repeats=1)
    assert len(prompts) > 3 * len(fixutil.FIXTURE_NAMES)
    for prompt in prompts:
        found = detect_mod._INDEXED_PAYOUT_RE.search(prompt) is not None
        assert found is (_UNANCHORED_PAYOUT_RE.search(prompt) is not None), prompt


# --- network backends over a scripted local server -------------------------


class _ChatHandler(BaseHTTPRequestHandler):
    script: list[tuple] = []  # (status, body) or (status, body, headers)
    bodies: list[dict] = []
    auth_headers: list[str | None] = []
    connection_headers: list[str | None] = []  # of every request answered

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            _ChatHandler.bodies.append(json.loads(raw))
        except json.JSONDecodeError:
            _ChatHandler.bodies.append({})
        _ChatHandler.auth_headers.append(self.headers.get("Authorization"))
        self._send(*_ChatHandler.script.pop(0))

    def _send(self, status: int, body: bytes, headers: dict | None = None) -> None:
        _ChatHandler.connection_headers.append(self.headers.get("Connection"))
        self.send_response(status)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _chat_body(text: str, usage: dict | None = None) -> bytes:
    doc = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        doc["usage"] = usage
    return json.dumps(doc).encode()


@pytest.fixture()
def chat_server():
    _ChatHandler.script = []
    _ChatHandler.bodies = []
    _ChatHandler.auth_headers = []
    _ChatHandler.connection_headers = []
    with serve(_ChatHandler) as url:
        yield url + "/v1/chat/completions"


def _prompt(text: str = "say hi") -> PromptBundle:
    return PromptBundle(
        stage="analysis",
        rendered=text,
        parts=PromptParts(),
        template_version="t",
        token_estimate=estimate_tokens(text),
    )


def _local(url: str, **kw) -> LlmConfig:
    kw.setdefault("backend", BACKEND_LOCAL)
    kw.setdefault("endpoint", url)
    kw.setdefault("model", "local-model")
    return LlmConfig(**kw)


def test_local_server_round_trip_uses_reported_usage(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [
        (200, _chat_body("hello there", {"prompt_tokens": 42, "completion_tokens": 7}))
    ]
    out = complete(_prompt("say hi"), _local(chat_server, temperature=0.25))
    assert out.text == "hello there"
    assert out.input_tokens == 42
    assert out.output_tokens == 7
    assert out.wall_seconds > 0.0
    body = _ChatHandler.bodies[0]
    assert body["model"] == "local-model"
    assert body["messages"] == [{"role": "user", "content": "say hi"}]
    assert body["temperature"] == 0.25
    assert body["max_tokens"] == 1024
    # No key is set, so no Authorization header was sent.
    assert _ChatHandler.auth_headers == [None]


def test_missing_usage_falls_back_to_estimates(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(200, _chat_body("brief"))]
    prompt = _prompt("x" * 40)
    out = complete(prompt, _local(chat_server))
    assert out.input_tokens == prompt.token_estimate == 10
    assert out.output_tokens == estimate_tokens("brief")


def test_retry_on_429_uses_backoff(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(detect_mod.time, "sleep", lambda s: sleeps.append(s))
    # The jittered sleep drawn at its upper bound.
    monkeypatch.setattr(transport, "_BACKOFF", (0.5, 1.0, 2.0))
    monkeypatch.setattr(transport.random, "uniform", lambda low, high: high)
    _ChatHandler.script = [(429, b"busy"), (200, _chat_body("ok"))]
    cfg = _local(chat_server)
    out = complete(_prompt(), cfg)
    assert out.text == "ok"
    assert sleeps == [0.5]
    assert len(_ChatHandler.bodies) == 2


def test_retry_on_429_honours_retry_after(chat_server, monkeypatch):
    """A 429 that names its wait gets that wait instead of a jitter draw."""
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(detect_mod.time, "sleep", sleeps.append)
    _ChatHandler.script = [(429, b"busy", {"Retry-After": "2"}), (200, _chat_body("ok"))]
    assert complete(_prompt(), _local(chat_server)).text == "ok"
    assert sleeps == [2.0]
    assert len(_ChatHandler.bodies) == 2


def test_server_errors_exhaust_attempts(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(500, b"boom")] * 3
    with pytest.raises(BackendUnavailable):
        complete(_prompt(), _local(chat_server, max_attempts=3))
    assert len(_ChatHandler.bodies) == 3


def test_auth_rejection_is_immediate(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(401, b"who are you")]
    with pytest.raises(AuthError):
        complete(_prompt(), _local(chat_server, max_attempts=3))
    assert len(_ChatHandler.bodies) == 1


def test_http_400_mentioning_context_is_overflow(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(400, b"maximum context length exceeded")]
    with pytest.raises(ContextOverflow):
        complete(_prompt(), _local(chat_server))


def test_other_client_errors_do_not_retry(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(418, b"nope")]
    with pytest.raises(BackendUnavailable):
        complete(_prompt(), _local(chat_server, max_attempts=3))
    assert len(_ChatHandler.bodies) == 1


def test_malformed_completion_reply_raises(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(200, json.dumps({"choices": []}).encode())]
    with pytest.raises(BackendUnavailable, match="malformed"):
        complete(_prompt(), _local(chat_server))


def test_keyless_auth_rejection_names_the_key_variable(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(401, b"missing bearer token")]
    cfg = LlmConfig(backend=BACKEND_OPENAI, endpoint=chat_server)
    with pytest.raises(AuthError, match=API_KEY_ENV):
        complete(_prompt(), cfg)
    assert _ChatHandler.auth_headers == [None]


def test_http_backend_sends_config_key_as_bearer(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(200, _chat_body("fine")), (403, b"revoked")]
    cfg = _local(chat_server, api_key="sk-cfg")
    complete(_prompt(), cfg)
    with pytest.raises(AuthError) as rejected:
        complete(_prompt(), cfg)
    assert API_KEY_ENV not in str(rejected.value)
    assert _ChatHandler.auth_headers == ["Bearer sk-cfg"] * 2


def test_openai_backend_sends_bearer_from_env(chat_server, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-env")
    _ChatHandler.script = [(200, _chat_body("fine"))]
    cfg = LlmConfig(backend=BACKEND_OPENAI, endpoint=chat_server, api_key="sk-cfg")
    complete(_prompt(), cfg)
    assert _ChatHandler.auth_headers == ["Bearer sk-env"]


def test_context_window_precheck_blocks_request(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    cfg = _local(chat_server, context_window=5)
    with pytest.raises(ContextOverflow):
        complete(_prompt("x" * 100), cfg)
    assert _ChatHandler.bodies == []


def test_no_request_asks_to_close_its_connection(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(500, b"busy"), (429, b"busy"), (200, _chat_body("ok"))]
    assert complete(_prompt(), _local(chat_server)).text == "ok"
    assert _ChatHandler.connection_headers == [None] * 3


@pytest.mark.parametrize(
    "status, body, error, message",
    [
        (500, b"\xff\xfe down", BackendUnavailable, "HTTP 500: \ufffd\ufffd down"),
        (401, b"\xff who", AuthError, "HTTP 401"),
        (400, b"\xff context length exceeded", ContextOverflow, "\ufffd context"),
        (418, b"\xff", BackendUnavailable, "HTTP 418: \ufffd"),
    ],
)
def test_error_body_that_is_not_utf8_maps_to_its_status(
    chat_server, monkeypatch, status, body, error, message
):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(status, body)] * 3
    with pytest.raises(error, match=message) as raised:
        complete(_prompt(), _local(chat_server, max_attempts=3))
    assert type(raised.value) is error


def test_redirect_is_not_followed(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(307, b"moved")]
    with pytest.raises(BackendUnavailable, match="HTTP 307"):
        complete(_prompt(), _local(chat_server, max_attempts=3))
    assert len(_ChatHandler.bodies) == 1


def test_unserializable_payload_is_refused_before_sending(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(BackendUnavailable, match="not valid JSON"):
        complete(_prompt(), _local(chat_server, temperature=float("nan")))
    assert _ChatHandler.bodies == []


@pytest.mark.parametrize("scheme", ["file", "ftp", "data", "localhost"])
def test_non_http_endpoint_is_refused_and_nothing_opened(tmp_path, monkeypatch, scheme):
    reply = tmp_path / "reply.json"
    reply.write_bytes(_chat_body("true"))
    endpoint = {
        "file": reply.as_uri(),
        "ftp": "ftp://127.0.0.1:1/reply.json",
        "data": "data:application/json," + _chat_body("true").decode(),
        "localhost": "localhost:8080/v1/chat/completions",
    }[scheme]
    monkeypatch.setattr(transport, "request", lambda *a, **k: pytest.fail("a request was sent"))
    with pytest.raises(BackendUnavailable, match="not an http or https URL"):
        complete(_prompt(), _local(endpoint, max_attempts=3))


def test_refused_connection_is_tried_max_attempts_times(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    dials: list[tuple] = []
    dial = socket.create_connection

    def counted(address, *args, **kwargs):
        dials.append(address)
        return dial(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    port = free_port()
    with pytest.raises(BackendUnavailable, match="after 4 attempts"):
        complete(_prompt(), _local(f"http://127.0.0.1:{port}/v1", max_attempts=4))
    assert dials == [("127.0.0.1", port)] * 4


_PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


class _ProxyHandler(_ChatHandler):
    """A forward proxy that answers every request itself."""

    request_lines: list[str] = []

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        _ProxyHandler.request_lines.append(self.requestline)
        self._send(200, _chat_body("via proxy"))


@pytest.fixture()
def proxied(monkeypatch):
    """A loopback proxy set as HTTP_PROXY, with every other proxy variable
    cleared and the transport's proxy table read afresh from that
    environment."""
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    monkeypatch.setattr(transport, "_proxies", None)
    _ProxyHandler.request_lines = []
    with serve(_ProxyHandler) as url:
        monkeypatch.setenv("HTTP_PROXY", url)
        yield monkeypatch


def test_http_proxy_from_the_environment_carries_the_request(proxied, chat_server):
    out = complete(_prompt(), _local(chat_server))
    assert out.text == "via proxy"
    # A proxy is sent the absolute URI; the endpoint itself saw nothing.
    assert _ProxyHandler.request_lines == [f"POST {chat_server} HTTP/1.1"]
    assert _ChatHandler.bodies == []


def test_no_proxy_bypasses_the_proxy(proxied, chat_server):
    proxied.setenv("NO_PROXY", "127.0.0.1")
    _ChatHandler.script = [(200, _chat_body("direct"))]
    assert complete(_prompt(), _local(chat_server)).text == "direct"
    assert _ProxyHandler.request_lines == []


def test_tls_context_is_built_at_the_first_https_request(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", *_PROXY_VARIABLES):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setattr(transport, "_proxies", None)
    monkeypatch.setattr(transport, "_tls", None)
    _ChatHandler.script = [(200, _chat_body("plain"))]
    complete(_prompt(), _local(chat_server))
    assert transport._tls is None
    with pytest.raises(BackendUnavailable):
        complete(_prompt(), _local(f"https://127.0.0.1:{free_port()}/v1"))
    assert transport._tls.verify_mode is ssl.CERT_REQUIRED and transport._tls.check_hostname


def test_llm_config_validation():
    assert BACKENDS == ("http", "mock")
    assert BACKEND_OPENAI == BACKEND_LOCAL == "http"
    for retired in ("carrier-pigeon", "openai_compatible", "local_server"):
        with pytest.raises(ValueError):
            LlmConfig(backend=retired)
    with pytest.raises(ValueError):
        LlmConfig(concurrency_limit=0)
    with pytest.raises(ValueError):
        LlmConfig(max_attempts=0)


# --- vote and report ------------------------------------------------------


def _run(verdict: bool | None) -> RunRecord:
    return RunRecord(
        verdict=verdict,
        analysis_text="a",
        input_tokens=1,
        output_tokens=1,
        wall_seconds=0.0,
        cost=0.0,
    )


def test_majority_verdict_cases():
    assert majority_verdict([_run(True)] * 5) is True
    assert majority_verdict([_run(False)] * 5) is False
    assert majority_verdict([_run(True)] * 2 + [_run(False)] * 3) is False
    assert majority_verdict([_run(True)] * 3 + [_run(False)] * 2) is True
    # Ties break toward the positive class.
    assert majority_verdict([_run(True), _run(False)]) is True
    # Unparseable runs do not vote.
    assert majority_verdict([_run(True), _run(None), _run(False), _run(None), _run(False)]) is False
    assert majority_verdict([_run(None)] * 3) is None
    assert majority_verdict([]) is None


def test_detection_report_round_trip():
    report = DetectionReport(
        contract_id="c1",
        mode=MODE_FULL,
        model="mock:m",
        template_version="analysis_full_v1+detection_v1",
        runs=[_run(True), _run(None)],
        final_verdict=True,
        error=None,
        slice_stats={"functions_total": 3, "functions_selected": 1, "combined_bytes": 9},
    )
    again = DetectionReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert again.to_dict() == report.to_dict()
    overhead = aggregate_overhead([again])
    assert overhead.total_tokens == aggregate_overhead([report]).total_tokens == 4
    assert overhead.total_cost == 0.0
    assert overhead.mean_wall_seconds == 0.0


# --- end-to-end detection ---------------------------------------------------


def test_detect_contract_mock_positive():
    report = detect_contract(fixutil.load_unit("simple_ponzi"), LlmConfig(), repeats=5)
    assert report.final_verdict is True
    assert report.error is None
    assert len(report.runs) == 5
    assert all(r.verdict is True for r in report.runs)
    assert report.model == "mock:gpt-3.5-turbo"
    assert report.template_version == "analysis_full_v1+detection_v1"
    assert report.slice_stats == {
        "functions_total": 1,
        "functions_selected": 1,
        "combined_bytes": report.slice_stats["combined_bytes"],
    }
    assert report.slice_stats["combined_bytes"] > 0
    assert [r.wall_seconds for r in report.runs] == [0.0] * 5


def test_detect_contract_mock_negative():
    report = detect_contract(fixutil.load_unit("mini_token"), LlmConfig(), repeats=5)
    assert report.final_verdict is False
    assert all(r.verdict is False for r in report.runs)
    assert report.error is None


def test_detect_contract_reports_are_byte_identical():
    unit = fixutil.load_unit("simple_ponzi")
    a = json.dumps(detect_contract(unit, LlmConfig(), repeats=5).to_dict(), sort_keys=True)
    b = json.dumps(detect_contract(unit, LlmConfig(), repeats=5).to_dict(), sort_keys=True)
    assert a == b


# Each level of an if chain costs the statement walker at least one frame,
# so a chain as deep as the recursion limit is refused.
@pytest.mark.parametrize(
    ("depth", "statements"),
    [(3000, False), (sys.getrecursionlimit(), True)],
    ids=["binary_ops", "ifs"],
)
def test_detect_contract_reports_too_deep_an_ast(depth, statements):
    unit = load_ast(programs.deep_doc(depth, statements))
    report = detect_contract(unit, LlmConfig(), repeats=1)
    assert report.error == {"phase": "static", "message": "AST nested too deeply to lower"}
    assert report.final_verdict is None and not report.runs


def test_detect_contract_no_taint_template_version():
    report = detect_contract(
        fixutil.load_unit("simple_ponzi"), LlmConfig(), MODE_NO_TAINT, repeats=1
    )
    assert report.template_version == "analysis_code_v1+detection_v1"
    assert report.final_verdict is True


def test_detect_contract_raw_mode_needs_no_ast():
    unit = SourceUnit(
        id="raw1",
        source_text=(
            "contract R { function pay(uint i) public {"
            " while (i > 0) { holders[i].send(1); i--; } } }"
        ),
    )
    report = detect_contract(unit, LlmConfig(), MODE_RAW, repeats=3)
    assert report.error is None
    assert report.final_verdict is True
    assert report.template_version == "analysis_code_v1+detection_v1"
    assert report.slice_stats == {
        "functions_total": 0,
        "functions_selected": 0,
        "combined_bytes": len(unit.source_text.encode()),
    }


def test_detect_contract_empty_slice_falls_back_to_source():
    report = detect_contract(fixutil.load_unit("hollow"), LlmConfig(), repeats=1)
    assert report.error is None
    assert report.final_verdict is False
    assert report.slice_stats["functions_selected"] == 0
    assert report.slice_stats["combined_bytes"] == 0


def test_detect_contract_ingest_failure_is_reported_not_raised(monkeypatch):
    monkeypatch.delenv("SOLC_BINARY", raising=False)
    monkeypatch.setenv("PATH", "/nonexistent")
    unit = SourceUnit(id="nocompiler", source_text="contract C { uint x; }")
    report = detect_contract(unit, LlmConfig(), MODE_FULL, repeats=1)
    assert report.error is not None
    assert report.error["phase"] == "ingest"
    assert report.runs == []
    assert report.final_verdict is None


def test_detect_contract_overlong_version_is_reported_not_raised(monkeypatch):
    # A version literal past the interpreter's digit limit for `int` reads
    # bounded, as out of range, before any compiler is picked.
    monkeypatch.setattr(ingest, "discover_solc", lambda: {"0.8.19": "/bin/false"})
    unit = SourceUnit(id="long", source_text=f"pragma solidity 0.{'9' * 5000}; contract C {{}}")
    report = detect_contract(unit, LlmConfig(), MODE_FULL, repeats=1)
    assert report.error is not None
    assert report.error["phase"] == "ingest"
    assert "outside supported range" in report.error["message"]
    assert report.runs == []


def test_detect_contract_backend_failure_clears_runs(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(500, b"down")] * 3
    cfg = _local(chat_server, max_attempts=3)
    report = detect_contract(fixutil.load_unit("simple_ponzi"), cfg, repeats=2)
    assert report.error is not None
    assert report.error["phase"] == "detect"
    assert report.runs == []
    assert report.final_verdict is None


def test_detect_contract_all_unparseable_flags_verdict_phase(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(200, _chat_body("inconclusive reply"))] * 4
    cfg = _local(chat_server)
    report = detect_contract(fixutil.load_unit("simple_ponzi"), cfg, repeats=2)
    assert report.final_verdict is None
    assert len(report.runs) == 2
    assert all(r.verdict is None and r.error for r in report.runs)
    assert report.error == {
        "phase": "verdict",
        "message": "no run produced a parseable verdict",
    }


@pytest.mark.parametrize(
    "reply",
    [
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": "true"}}], "usage": 5}',
        b'{"choices": [{"message": {"content": "true"}}], "usage": {"prompt_tokens": "abc"}}',
        b'{"choices": [{"message": {"content": "true"}}], "usage": {"prompt_tokens": 1e999}}',
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["null_content", "scalar_usage", "text_count", "infinite_count", "too_deep"],
)
def test_detect_contract_malformed_reply_is_reported_not_raised(chat_server, monkeypatch, reply):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [(200, reply)]
    report = detect_contract(fixutil.load_unit("caller"), _local(chat_server), repeats=1)
    assert report.error["phase"] == "detect"
    assert report.error["message"].startswith("malformed completion reply: ")
    assert report.runs == [] and report.final_verdict is None


def test_detect_contract_validates_arguments():
    unit = fixutil.load_unit("simple_ponzi")
    with pytest.raises(ValueError):
        detect_contract(unit, LlmConfig(), "loud")
    with pytest.raises(ValueError):
        detect_contract(unit, LlmConfig(), repeats=0)


def test_detect_contract_run_accounting():
    cfg = LlmConfig(price_per_1k_input=0.003, price_per_1k_output=0.006)
    report = detect_contract(fixutil.load_unit("simple_ponzi"), cfg, repeats=2)
    for run in report.runs:
        assert run.input_tokens > 0 and run.output_tokens > 0
        want = (
            run.input_tokens * 0.003 + run.output_tokens * 0.006
        ) / 1000.0
        assert run.cost == pytest.approx(want)
    overhead = aggregate_overhead([report])
    assert overhead.total_cost == pytest.approx(sum(r.cost for r in report.runs))
    assert overhead.total_tokens == sum(
        r.input_tokens + r.output_tokens for r in report.runs
    )


def _hierarchy_unit(bases: dict[str, list[str]]) -> SourceUnit:
    """Contracts with the given `is` lists; the first declares x and the
    last writes msg.value into it through the hierarchy."""
    first, last = list(bases)[0], list(bases)[-1]
    pay = Fn("pay", [], [SAssign(Id("x"), "=", Member(Id("msg"), "value"))], mutability="payable")
    members: dict[str, list] = {name: [] for name in bases}
    members[first].append(StateVar("uint", "x"))
    members[last].append(pay)
    contracts = [Contract(name, members[name], bases=bases[name]) for name in bases]
    return load_ast(build_unit("hostile", contracts)[1])


def _duplicate_contract_name() -> SourceUnit:
    """Two contracts named A: the first takes msg.value into x, the second
    writes a constant into y."""
    pay = Fn("f", [], [SAssign(Id("x"), "=", Member(Id("msg"), "value"))], mutability="payable")
    other = Fn("g", [], [SAssign(Id("y"), "=", Lit(1))])
    contracts = [
        Contract("A", [StateVar("uint", "x"), pay]),
        Contract("A", [StateVar("uint", "y"), other]),
    ]
    return load_ast(build_unit("hostile", contracts)[1])


def _non_object_member() -> SourceUnit:
    doc = fixutil.load_doc("simple_ponzi")
    (entry,) = doc["sources"].values()
    entry["ast"]["nodes"][-1]["nodes"].append(7)
    return load_ast(doc)


def _hostile_function(path: tuple[str, ...], value: object) -> SourceUnit:
    """simple_ponzi with `value` put at `path` inside its first function."""
    doc = fixutil.load_doc("simple_ponzi")
    (entry,) = doc["sources"].values()
    members = entry["ast"]["nodes"][-1]["nodes"]
    node = next(m for m in members if m.get("nodeType") == "FunctionDefinition")
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return load_ast(doc)


def _compiler_version(version: object) -> SourceUnit:
    """simple_ponzi whose document gives `version` as its compiler version."""
    doc = fixutil.load_doc("simple_ponzi")
    doc["compiler"]["version"] = version
    return load_ast(doc)


def _scalar_list(key: str) -> SourceUnit:
    """relay, plus a tuple and a try statement, with every list under `key`
    replaced by the scalar 7."""
    doc = fixutil.load_doc("relay")
    (entry,) = doc["sources"].values()
    fn = next(
        m for c in entry["ast"]["nodes"] if c.get("nodeType") == "ContractDefinition"
        for m in c["nodes"] if m.get("nodeType") == "FunctionDefinition"
    )
    fn["body"]["statements"] += [
        {"nodeType": "ExpressionStatement",
         "expression": {"nodeType": "TupleExpression", "components": []}},
        {"nodeType": "TryStatement", "clauses": []},
    ]
    stack: list = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if key in node:
                node[key] = 7
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return load_ast(doc)


_LIST_FIELDS = (
    "arguments", "components", "declarations", "options", "names", "clauses", "baseContracts"
)

# Per name site, a node kind and the path from its first node (in document
# order) to a name that lowering reads.
_NAME_PATHS = {
    "ContractDefinition": ("ContractDefinition", ("name",)),
    "InheritanceSpecifier": ("InheritanceSpecifier", ("baseName", "name")),
    "VariableDeclaration": ("VariableDeclaration", ("name",)),  # Base's state x
    "EventDefinition": ("EventDefinition", ("name",)),
    "ModifierDefinition": ("ModifierDefinition", ("name",)),
    "FunctionDefinition": ("FunctionDefinition", ("name",)),
    "parameter": ("FunctionDefinition", ("parameters", "parameters", 0, "name")),
    "ModifierInvocation": ("ModifierInvocation", ("modifierName", "name")),
    "VariableDeclarationStatement": ("VariableDeclarationStatement", ("declarations", 0, "name")),
    "Identifier": ("Identifier", ("name",)),
    "MemberAccess": ("MemberAccess", ("memberName",)),
    "EmitStatement": ("EmitStatement", ("eventCall", "expression", "name")),
}


def _hostile_name(site: str, value: object) -> SourceUnit:
    """Base (state x, event Paid, modifier gate(v)) and Child is Base, whose
    pay(a) is gated, declares a local and emits Paid, with `value` as the
    name `_NAME_PATHS[site]` locates."""
    value_of = Member(Id("msg"), "value")
    base = Contract(
        "Base",
        [
            StateVar("uint", "x"),
            EventDef("Paid", [("uint", "amount")]),
            Modifier("gate", [("uint", "v")], [
                SExpr(Call(Id("require"), [Bin(value_of, ">=", Id("v"))])), SPlaceholder()
            ]),
        ],
    )
    pay = Fn(
        "pay",
        [("uint", "a")],
        [SDecl("uint", "b", value_of), SAssign(Id("x"), "=", Id("b")), SEmit("Paid", [Id("x")])],
        mutability="payable",
        modifiers=[("gate", [Id("a")])],
    )
    doc = build_unit("names", [base, Contract("Child", [pay], bases=["Base"])])[1]
    kind, (*path, last) = _NAME_PATHS[site]
    stack: list = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict) and node.get("nodeType") == kind:
            break
        items = node.values() if isinstance(node, dict) else node
        stack.extend(reversed([i for i in items if isinstance(i, (dict, list))]))
    for key in path:
        node = node[key]
    node[last] = value
    return load_ast(doc)


def _hostile_yul(key: str, value: object) -> SourceUnit:
    """vaulted with `value` under `key` in its Yul call `sload(vault.slot)`,
    or for "name" in that call's argument."""
    doc = fixutil.load_doc("vaulted")
    (entry,) = doc["sources"].values()
    lock = entry["ast"]["nodes"][-1]["nodes"][-1]
    call = lock["body"]["statements"][-1]["AST"]["statements"][0]["value"]
    (call["arguments"][0] if key == "name" else call)[key] = value
    return load_ast(doc)


@pytest.mark.parametrize(
    "case",
    [
        "deep_chain",
        "self_base",
        "cyclic_bases",
        "inconsistent_bases",
        "duplicate_contract_name",
        "non_object_member",
        "non_object_modifier",
        "parameter_list_as_list",
        "statements_not_list",
        *(f"{key}_not_list" for key in _LIST_FIELDS),
        "version_not_a_string",
        "version_without_a_literal",
        *(f"{site}_name_{shape}" for site in _NAME_PATHS for shape in ("list", "object")),
        "yul_name_list",
        "yul_arguments_scalar",
        "yul_functionName_scalar",
    ],
)
def test_detect_contract_hostile_ast_is_reported_not_raised(case):
    units = {
        "deep_chain": lambda: _hierarchy_unit(
            {"C0": [], **{f"C{i}": [f"C{i - 1}"] for i in range(1, 3000)}}
        ),
        "self_base": lambda: _hierarchy_unit({"A": ["A"]}),
        "cyclic_bases": lambda: _hierarchy_unit({"A": ["C"], "B": ["A"], "C": ["B"]}),
        # Solidity wants X before A in `is`, since A already derives from X.
        "inconsistent_bases": lambda: _hierarchy_unit({"X": [], "A": ["X"], "C": ["A", "X"]}),
        "duplicate_contract_name": _duplicate_contract_name,
        "non_object_member": _non_object_member,
        "non_object_modifier": lambda: _hostile_function(("modifiers",), ["onlyOwner"]),
        "parameter_list_as_list": lambda: _hostile_function(
            ("parameters",), [{"nodeType": "VariableDeclaration", "name": "a"}]
        ),
        "statements_not_list": lambda: _hostile_function(("body", "statements"), 7),
        **{f"{key}_not_list": lambda key=key: _scalar_list(key) for key in _LIST_FIELDS},
        # Lowering reads the version to pick the scoping rule.
        "version_not_a_string": lambda: _compiler_version(5),
        "version_without_a_literal": lambda: _compiler_version("latest"),
        **{
            f"{site}_name_{shape}": lambda site=site, value=value: _hostile_name(site, value)
            for site in _NAME_PATHS
            for shape, value in (("list", [1]), ("object", {"a": 1}))
        },
        "yul_name_list": lambda: _hostile_yul("name", [1]),
        "yul_arguments_scalar": lambda: _hostile_yul("arguments", 7),
        "yul_functionName_scalar": lambda: _hostile_yul("functionName", "sload"),
    }
    report = detect_contract(units[case](), LlmConfig(), repeats=1)
    if case == "deep_chain" or case.startswith("version_"):
        assert report.error is None
        assert report.final_verdict is not None
    else:
        assert report.error is not None and report.error["phase"] == "static"
        assert report.runs == []
    if case == "deep_chain":
        assert report.slice_stats["functions_selected"] == 1
    if case.endswith("_not_list"):
        assert repr(case.removesuffix("_not_list")) in report.error["message"]
    if "_name_" in case:
        assert "non-string" in report.error["message"]


def test_detect_contract_null_usage_counts_fall_back_to_estimates(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _ChatHandler.script = [
        (200, _chat_body("looks fine", {"prompt_tokens": None, "completion_tokens": 3})),
        (200, _chat_body("true", {"prompt_tokens": 5, "completion_tokens": None})),
    ]
    report = detect_contract(fixutil.load_unit("caller"), _local(chat_server), repeats=1)
    assert report.error is None
    (run,) = report.runs
    analysis_prompt = _ChatHandler.bodies[0]["messages"][0]["content"]
    assert run.input_tokens == estimate_tokens(analysis_prompt) + 5
    assert run.output_tokens == 3 + estimate_tokens("true")


# --- detect_contract over HTTP -------------------------------------------------


class _MockChatHandler(_ChatHandler):
    """Answers as the mock backend does, after a short random delay, on
    kept-alive connections, and keeps the most requests it had in flight at
    once and the client ports they came from. A request to
    /fail/<chain>/<k> is refused with HTTP 418 once k others have been."""

    protocol_version = "HTTP/1.1"
    lock = threading.Condition()
    in_flight = 0
    peak = 0
    ports: set[int] = set()
    refused: list[str] = []

    def do_POST(self):  # noqa: N802
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        cls = _MockChatHandler
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
            cls.ports.add(self.client_address[1])
        try:
            if self.path.startswith("/fail/"):
                _, _, chain, k = self.path.split("/")
                with cls.lock:
                    cls.lock.wait_for(lambda: len(cls.refused) >= int(k), timeout=10)
                    cls.refused.append(chain)
                    cls.lock.notify_all()
                status, body = 418, f"chain {chain} refused".encode()
            else:
                time.sleep(random.uniform(0.005, 0.03))
                reply = detect_mod._mock_complete(json.loads(raw)["messages"][0]["content"])
                usage = {"prompt_tokens": reply.input_tokens, "completion_tokens": reply.output_tokens}
                status, body = 200, _chat_body(reply.text, usage)
        finally:
            with cls.lock:
                cls.in_flight -= 1
        self._send(status, body)


@pytest.fixture()
def mock_chat(monkeypatch):
    """The base URL of a `_MockChatHandler` server."""
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    _MockChatHandler.in_flight = _MockChatHandler.peak = 0
    _MockChatHandler.ports = set()
    _MockChatHandler.refused = []
    _ChatHandler.connection_headers = []
    with serve(_MockChatHandler) as url:
        yield url


def _chat(url: str, **kw) -> LlmConfig:
    return _local(url + "/v1/chat/completions", **kw)


def _zero_walls(runs: list[dict]) -> list[dict]:
    return [dict(run, wall_seconds=0.0) for run in runs]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["simple_ponzi", "mini_token"])
def test_detect_contract_over_http_equals_mock(mock_chat, name, mode):
    over_http = detect_contract(fixutil.load_unit(name), _chat(mock_chat), mode, repeats=5)
    offline = detect_contract(fixutil.load_unit(name), LlmConfig(), mode, repeats=5)
    assert over_http.error is None
    assert _zero_walls(over_http.to_dict()["runs"]) == offline.to_dict()["runs"]
    assert over_http.final_verdict is offline.final_verdict
    # The chains were in flight together, so on separate connections, and
    # each chain's detection request reused a connection an analysis
    # request had opened: at most five for ten requests.
    assert _MockChatHandler.peak >= 2
    assert _ChatHandler.connection_headers == [None] * 10
    assert 2 <= len(_MockChatHandler.ports) <= 5


def test_detect_contract_over_http_caps_chains_in_flight(mock_chat):
    report = detect_contract(fixutil.load_unit("caller"), _chat(mock_chat), repeats=40)
    assert report.error is None and len(report.runs) == 40
    assert 2 <= _MockChatHandler.peak <= 16
    # The pool is gone when detect_contract returns.
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


class _IndexedPool(ThreadPoolExecutor):
    """A pool whose workers know the index of the chain they run."""

    local = threading.local()

    def map(self, fn, *iterables, **kwargs):
        def indexed(i):
            _IndexedPool.local.index = i
            return fn(i)

        return super().map(indexed, *iterables, **kwargs)


def test_detect_contract_over_http_reports_lowest_failing_chain(mock_chat, monkeypatch):
    """Chain 3 is refused at once and chain 1 after it; chain 1's error is
    the one reported."""
    real_complete = detect_mod.complete

    def routed(prompt: PromptBundle, cfg: LlmConfig) -> Completion:
        fail = {1: "/fail/1/1", 3: "/fail/3/0"}.get(_IndexedPool.local.index)
        if fail and prompt.stage == "detection":
            cfg = dataclasses.replace(cfg, endpoint=mock_chat + fail)
        return real_complete(prompt, cfg)

    monkeypatch.setattr(detect_mod, "ThreadPoolExecutor", _IndexedPool)
    monkeypatch.setattr(detect_mod, "complete", routed)
    report = detect_contract(fixutil.load_unit("caller"), _chat(mock_chat), repeats=5)
    assert _MockChatHandler.refused == ["3", "1"]
    assert report.error == {"phase": "detect", "message": "HTTP 418: chain 1 refused"}
    assert report.runs == [] and report.final_verdict is None


class _RefuseOnceHandler(_ChatHandler):
    """Refuses the first request on each path with HTTP 429, then answers
    as the mock backend does."""

    seen: set[str] = set()
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.lock:
            first = self.path not in self.seen
            self.seen.add(self.path)
        if first:
            self._send(429, b"busy")
            return
        reply = detect_mod._mock_complete(json.loads(raw)["messages"][0]["content"])
        self._send(200, _chat_body(reply.text))


def test_concurrent_chains_retry_after_jittered_backoff(monkeypatch):
    """Each of five chains is refused once; their retries wait random times
    up to the backoff, not the same time."""
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(detect_mod.time, "sleep", lambda s: sleeps.append(s))
    monkeypatch.setattr(transport, "_BACKOFF", (0.5,))
    real_complete = detect_mod.complete

    def routed(prompt: PromptBundle, cfg: LlmConfig) -> Completion:
        chain = f"{cfg.endpoint}/chain/{_IndexedPool.local.index}"
        return real_complete(prompt, dataclasses.replace(cfg, endpoint=chain))

    monkeypatch.setattr(detect_mod, "ThreadPoolExecutor", _IndexedPool)
    monkeypatch.setattr(detect_mod, "complete", routed)
    _RefuseOnceHandler.seen = set()
    with serve(_RefuseOnceHandler) as url:
        report = detect_contract(fixutil.load_unit("caller"), _local(url), repeats=5)
    assert report.error is None and len(report.runs) == 5
    assert len(sleeps) == 5 and all(0 <= s <= 0.5 for s in sleeps)
    assert len(set(sleeps)) > 1


def _fixture_manifest() -> DatasetManifest:
    return DatasetManifest(
        [ManifestEntry(n, str(fixutil.fixture_path(n)), "ponzi") for n in fixutil.FIXTURE_NAMES],
    )


def _comparable(doc: dict) -> str:
    return json.dumps(dict(doc, runs=_zero_walls(doc["runs"])), sort_keys=True)


def test_run_batch_over_http_journal_is_independent_of_concurrency(mock_chat, tmp_path):
    manifest = _fixture_manifest()
    journals, returned = [], []
    for limit in (1, 2, 4):
        journal = tmp_path / f"journal{limit}.jsonl"
        reports = run_batch(
            manifest, _chat(mock_chat, concurrency_limit=limit), repeats=3, journal=journal
        )
        returned.append([_comparable(r.to_dict()) for r in reports])
        lines = journal.read_text().splitlines()
        journals.append(sorted(_comparable(json.loads(line)) for line in lines))
    assert len(journals[0]) == len(fixutil.FIXTURE_NAMES)
    assert journals[0] == journals[1] == journals[2]
    # Reports come back in manifest order, whatever order they finished in.
    assert returned[0] == returned[1] == returned[2]


def test_run_batch_over_http_keeps_two_contracts_in_flight_by_default(mock_chat):
    # With one run per contract, two requests in flight are two contracts.
    reports = run_batch(_fixture_manifest(), _chat(mock_chat), repeats=1)
    assert len(reports) == len(fixutil.FIXTURE_NAMES)
    assert _MockChatHandler.peak >= 2


@pytest.mark.parametrize("limit, repeats", [(1, 1), (1, 5), (2, 5), (2, 20)])
def test_run_batch_over_http_keeps_requests_in_flight_within_one_batch_budget(
    mock_chat, limit, repeats
):
    """The contracts of a batch share limit * min(repeats, 16) run slots,
    although limit + 1 of them are open. Short switch intervals shuffle the
    threads that wait for a slot."""
    cfg = _chat(mock_chat, concurrency_limit=limit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = run_batch(_fixture_manifest(), cfg, repeats=repeats)
    finally:
        sys.setswitchinterval(interval)
    assert len(reports) == len(fixutil.FIXTURE_NAMES)
    assert 1 <= _MockChatHandler.peak <= limit * min(repeats, 16)


@pytest.mark.parametrize("limit, repeats", [(1, 1), (2, 3), (3, 5), (1, 20)])
def test_run_batch_over_http_keep_alive_holds_at_most_its_slots(mock_chat, limit, repeats):
    """A connection is opened only when no idle one is left and each one in
    use carries one run's request, so a batch opens at most its
    limit * min(repeats, 16) slots' worth, and they all end idle."""
    cfg = _chat(mock_chat, concurrency_limit=limit)
    reports = run_batch(_fixture_manifest(), cfg, repeats=repeats)
    assert all(r.error is None for r in reports)
    slots = limit * min(repeats, 16)
    assert 1 <= len(_MockChatHandler.ports) <= slots
    assert len(idle(mock_chat)) == len(_MockChatHandler.ports)


def test_run_batch_over_http_at_limit_one_sends_one_request_at_a_time(
    mock_chat, tmp_path, monkeypatch
):
    """At limit 1 a second contract prepares while the first one's run is
    on the wire, so the journal is in finishing order; one request is in
    flight at a time, and the reports come back in manifest order."""
    inside = []
    peak_inside = 0
    lock = threading.Lock()
    real = evaluation_mod.detect_contract

    def counted(unit, *args, **kwargs):
        nonlocal peak_inside
        with lock:
            inside.append(unit.id)
            peak_inside = max(peak_inside, len(inside))
        try:
            return real(unit, *args, **kwargs)
        finally:
            with lock:
                inside.remove(unit.id)

    monkeypatch.setattr(evaluation_mod, "detect_contract", counted)
    journal = tmp_path / "journal.jsonl"
    cfg = _chat(mock_chat, concurrency_limit=1)
    reports = run_batch(_fixture_manifest(), cfg, repeats=1, journal=journal)
    ids = [e.id for e in _fixture_manifest().entries]
    journaled = [json.loads(line)["contract_id"] for line in journal.read_text().splitlines()]
    assert sorted(journaled) == sorted(ids)
    assert [r.contract_id for r in reports] == ids
    assert _MockChatHandler.peak == 1
    assert peak_inside == 2


def test_a_request_http_client_refuses_fails_at_once_without_the_key(
    mock_chat, tmp_path, monkeypatch
):
    """A key ending in a newline makes a header http.client will not send.
    The run fails on its first attempt, with no backoff sleep, and neither
    the report nor the journal quotes the key."""
    sleeps: list[float] = []
    monkeypatch.setattr(detect_mod.time, "sleep", sleeps.append)
    key = "sk-SECRET0123"
    monkeypatch.setattr(transport, "_BACKOFF", (0.5,))
    cfg = _chat(mock_chat, api_key=key + "\n")
    manifest = DatasetManifest(
        [ManifestEntry("sp", str(fixutil.fixture_path("simple_ponzi")), "ponzi")]
    )
    journal = tmp_path / "journal.jsonl"
    (report,) = run_batch(manifest, cfg, repeats=1, journal=journal)
    assert report.error["phase"] == "detect"
    assert "before sending" in report.error["message"]
    assert key not in report.error["message"]
    assert key not in journal.read_text()
    assert sleeps == [] and _MockChatHandler.peak == 0


@pytest.mark.parametrize("limit", [1, 2, 4])
def test_run_batch_over_http_interrupted_journals_every_finished_contract(
    mock_chat, tmp_path, monkeypatch, limit
):
    """The callback raises on the first report. The contracts already in
    flight still finish, and each one that returned is journaled, though no
    callback fires for it; the contracts not started are not run. Up to
    limit + 1 contracts are open, so more than the limit may return."""
    returned = []
    real = evaluation_mod.detect_contract

    def counted(*args, **kwargs):
        report = real(*args, **kwargs)
        returned.append(report.contract_id)
        return report

    seen = []

    def interrupt(report):
        seen.append(report.contract_id)
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation_mod, "detect_contract", counted)
    journal = tmp_path / "journal.jsonl"
    cfg = _chat(mock_chat, concurrency_limit=limit)
    with pytest.raises(KeyboardInterrupt):
        run_batch(_fixture_manifest(), cfg, repeats=1, journal=journal, on_report=interrupt)
    journaled = [json.loads(line)["contract_id"] for line in journal.read_text().splitlines()]
    assert min(limit, 2) <= len(returned) < len(fixutil.FIXTURE_NAMES)
    assert sorted(journaled) == sorted(returned)
    assert seen == journaled[:1]
    # Every pool worker, the batch's and each contract's, was joined.
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


@pytest.mark.parametrize(
    "target, hit",
    [
        ("load_source_unit", lambda path: path.endswith("simple_ponzi.json")),
        ("detect_contract", lambda unit: unit.id == "sp"),
    ],
    ids=["loading", "detection"],
)
def test_run_batch_over_http_reports_an_escaped_exception_as_internal(
    mock_chat, tmp_path, monkeypatch, target, hit
):
    """An exception escaping a pool worker's contract is reported as it is
    on the calling thread (see test_evaluation's mock cases)."""
    real = getattr(evaluation_mod, target)

    def flaky(arg, *args, **kwargs):
        if hit(arg):
            raise KeyError("lost")
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(evaluation_mod, target, flaky)
    manifest = DatasetManifest(
        [
            ManifestEntry("sp", str(fixutil.fixture_path("simple_ponzi")), "ponzi"),
            ManifestEntry("mt", str(fixutil.fixture_path("mini_token")), "non_ponzi"),
        ],
    )
    journal = tmp_path / "journal.jsonl"
    sp, mt = run_batch(manifest, _chat(mock_chat), repeats=1, journal=journal)
    assert sp.error == {"phase": "internal", "message": "KeyError: 'lost'"}
    assert sp.runs == [] and sp.final_verdict is None
    assert mt.error is None and mt.final_verdict is False
    assert read_journal(journal)["sp"].to_dict() == sp.to_dict()


def test_readme_python_api_block_runs(monkeypatch, capsys):
    # The README's "Python API" example, run from the repo root as written,
    # prints the values its comments state.
    root = fixutil.FIXTURES.parent.parent
    readme = (root / "README.md").read_text()
    section = readme[readme.index("## Python API") :]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    stated = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert stated == ["('SimplePonzi.enter',)", "8", "True"]
    monkeypatch.chdir(root)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == stated
