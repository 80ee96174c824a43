"""Prompt construction, backend handling, and the two-stage protocol."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import fixutil
import ponzilens.detect as detect_mod
from astgen import Contract, Fn, Id, Member, SAssign, StateVar, build_unit
from ponzilens.detect import (
    API_KEY_ENV,
    BACKEND_LOCAL,
    BACKEND_MOCK,
    BACKEND_OPENAI,
    MODE_FULL,
    MODE_NO_TAINT,
    MODE_RAW,
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
    default_ponzi_definition,
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
from ponzilens.ingest import SourceUnit, load_ast


def _artifacts(name: str, mode: str = MODE_FULL):
    return run_static_pipeline(fixutil.load_unit(name), mode)


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


def test_detection_prompt_pairs_analysis_with_definition():
    p = build_detection_prompt("The code pools deposits.", "A Ponzi pays old with new.")
    assert p.stage == "detection"
    assert p.template_version == "detection_v1"
    assert p.rendered.startswith("Definition of a Ponzi scheme:")
    assert "A Ponzi pays old with new." in p.rendered
    assert "The code pools deposits." in p.rendered
    assert p.parts.prior_analysis == "The code pools deposits."
    assert p.parts.ponzi_definition == "A Ponzi pays old with new."


def test_detection_prompt_defaults_to_packaged_definition():
    p = build_detection_prompt("some analysis")
    assert default_ponzi_definition() in p.rendered


def test_detection_prompt_rejects_empty_analysis():
    with pytest.raises(EmptyInput):
        build_detection_prompt("   ")
    with pytest.raises(EmptyInput):
        build_detection_prompt("analysis", "   ")


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

    detection = build_detection_prompt(first.text, "definition text")
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
    second = complete(build_detection_prompt(first.text, "definition"), LlmConfig())
    assert parse_verdict(second.text) is False


def test_mock_needs_loop_and_indexed_transfer_together():
    loop_only = "while (i < n) { total += i; }"
    indexed_only = "members[i].send(1);"
    both = loop_only + " " + indexed_only
    for text, want in ((loop_only, False), (indexed_only, False), (both, True)):
        p = PromptBundle("analysis", text, PromptParts(), "t", 1)
        hinted = "payout loop detected" in complete(p, LlmConfig()).text
        assert hinted is want


def test_mock_ignores_endpoint_and_context_window():
    cfg = LlmConfig(
        backend=BACKEND_MOCK,
        endpoint="http://127.0.0.1:1/nowhere",
        context_window=1,
    )
    p = PromptBundle("analysis", "x" * 4000, PromptParts(), "t", 1000)
    out = complete(p, cfg)
    assert isinstance(out, Completion)
    assert out.input_tokens == 1000


def test_mock_is_deterministic():
    p = PromptBundle("analysis", "function f() {}", PromptParts(), "t", 4)
    a = complete(p, LlmConfig())
    b = complete(p, LlmConfig())
    assert a == b


# --- network backends over a scripted local server -------------------------


class _ChatHandler(BaseHTTPRequestHandler):
    script: list[tuple[int, bytes]] = []
    bodies: list[dict] = []
    auth_headers: list[str | None] = []

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            _ChatHandler.bodies.append(json.loads(raw))
        except json.JSONDecodeError:
            _ChatHandler.bodies.append({})
        _ChatHandler.auth_headers.append(self.headers.get("Authorization"))
        status, body = _ChatHandler.script.pop(0)
        self.send_response(status)
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
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    _ChatHandler.script = []
    _ChatHandler.bodies = []
    _ChatHandler.auth_headers = []
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


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
    kw.setdefault("backoff", ())
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
    # local_server runs keyless: no Authorization header was sent.
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
    _ChatHandler.script = [(429, b"busy"), (200, _chat_body("ok"))]
    cfg = _local(chat_server, backoff=(0.5, 1.0, 2.0))
    out = complete(_prompt(), cfg)
    assert out.text == "ok"
    assert sleeps == [0.5]
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


def test_openai_backend_requires_key(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    cfg = LlmConfig(backend=BACKEND_OPENAI, endpoint=chat_server, backoff=())
    with pytest.raises(AuthError):
        complete(_prompt(), cfg)
    assert _ChatHandler.bodies == []


def test_openai_backend_sends_bearer_from_env(chat_server, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-env")
    _ChatHandler.script = [(200, _chat_body("fine"))]
    cfg = LlmConfig(
        backend=BACKEND_OPENAI, endpoint=chat_server, api_key="sk-cfg", backoff=()
    )
    complete(_prompt(), cfg)
    assert _ChatHandler.auth_headers == ["Bearer sk-env"]


def test_context_window_precheck_blocks_request(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    cfg = _local(chat_server, context_window=5)
    with pytest.raises(ContextOverflow):
        complete(_prompt("x" * 100), cfg)
    assert _ChatHandler.bodies == []


def test_llm_config_validation():
    with pytest.raises(ValueError):
        LlmConfig(backend="carrier-pigeon")
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
    assert again.tokens_total == report.tokens_total == 4
    assert again.cost_total == 0.0
    assert again.wall_seconds_total == 0.0


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
    assert report.wall_seconds_total == 0.0


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
    assert report.cost_total == pytest.approx(sum(r.cost for r in report.runs))
    assert report.tokens_total == sum(
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


@pytest.mark.parametrize(
    "case",
    [
        "deep_chain",
        "self_base",
        "cyclic_bases",
        "inconsistent_bases",
        "non_object_member",
        "non_object_modifier",
        "parameter_list_as_list",
        "statements_not_list",
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
        "non_object_member": _non_object_member,
        "non_object_modifier": lambda: _hostile_function(("modifiers",), ["onlyOwner"]),
        "parameter_list_as_list": lambda: _hostile_function(
            ("parameters",), [{"nodeType": "VariableDeclaration", "name": "a"}]
        ),
        "statements_not_list": lambda: _hostile_function(("body", "statements"), 7),
    }
    report = detect_contract(units[case](), LlmConfig(), repeats=1)
    if case == "deep_chain":
        assert report.error is None
        assert report.final_verdict is not None
        assert report.slice_stats["functions_selected"] == 1
    else:
        assert report.error is not None and report.error["phase"] == "static"
        assert report.runs == []
