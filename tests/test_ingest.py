"""Input handling: versions, AST documents, and explorer fetch."""

from __future__ import annotations

import contextlib
import email.utils
import json
import os
import socket
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest

import fixutil
import ponzilens.ingest as ingest
import ponzilens.transport as transport
import programs
from loopback import free_port, serve
from ponzilens.detect import LlmConfig
from ponzilens.errors import (
    AuthError,
    CompileError,
    CompilerNotFound,
    JsonError,
    MalformedAst,
    NetworkError,
    NotVerified,
)
from ponzilens.ingest import (
    ETHERSCAN_KEY_ENV,
    FetchConfig,
    RateLimiter,
    SourceUnit,
    compile_source,
    fetch_verified_source,
    is_address,
    load_ast,
    load_source_unit,
    parse_pragma,
    pragma_supported,
    resolve_version,
    version_tuple,
)
from ponzilens.evaluation import DatasetManifest, ManifestEntry, run_batch
from ponzilens.model import lower

GOOD_ADDRESS = "0x" + "ab" * 20
DEEP = "[" * 3000 + "]" * 3000


# --- pure helpers -------------------------------------------------------------


def test_is_address():
    assert is_address(GOOD_ADDRESS)
    assert is_address("0x" + "AB" * 20)
    assert not is_address("0x1234")
    assert not is_address("ab" * 20)
    assert not is_address("0x" + "gg" * 20)
    assert not is_address(GOOD_ADDRESS + "00")


def test_version_tuple():
    assert version_tuple("0.8.19") == (0, 8, 19)
    assert version_tuple("^0.4.24") == (0, 4, 24)
    assert version_tuple(">=0.6") == (0, 6, 0)
    assert version_tuple("v0.5.16+commit.9c3226ce") == (0, 5, 16)
    with pytest.raises(ValueError):
        version_tuple("latest")


def test_pragma_supported_range():
    assert pragma_supported(None)
    assert pragma_supported("^0.4.11")
    assert pragma_supported("0.8.23")
    assert not pragma_supported("0.4.10")
    assert not pragma_supported("^0.9.0")
    assert pragma_supported("this is not a version")


def test_parse_pragma():
    assert parse_pragma("pragma solidity ^0.8.19;\ncontract C {}") == "^0.8.19"
    assert parse_pragma("pragma solidity >=0.4.22 <0.6.0;") == ">=0.4.22 <0.6.0"
    assert parse_pragma("contract C {}") is None


def test_source_unit_requires_content():
    with pytest.raises(ValueError):
        SourceUnit(id="empty")
    u = SourceUnit(id="s", source_text="pragma solidity ^0.8.19; contract C {}")
    assert u.pragma_version == "^0.8.19"
    assert pragma_supported(u.pragma_version)
    old = SourceUnit(id="old", source_text="pragma solidity ^0.4.2; contract C {}")
    assert not pragma_supported(old.pragma_version)


def test_resolve_version_policy():
    available = ["0.8.19", "0.8.21", "0.4.26", "0.5.16"]
    # Exact literal wins.
    assert resolve_version("0.8.19", available) == "0.8.19"
    # Same minor, higher patch allowed.
    assert resolve_version("^0.8.20", available) == "0.8.21"
    # No literal at all: newest available.
    assert resolve_version("latest and greatest", available) == "0.8.21"
    with pytest.raises(CompilerNotFound):
        resolve_version("^0.6.0", available)
    with pytest.raises(CompilerNotFound):
        resolve_version("^0.8.22", available)
    with pytest.raises(CompilerNotFound):
        resolve_version("0.8.19", [])


# --- AST documents ------------------------------------------------------------


def test_load_ast_round_trip():
    doc = fixutil.load_doc("simple_ponzi")
    unit = load_ast(doc)
    assert unit.id == "simple_ponzi"
    assert unit.compiler_version == "0.4.26"
    assert unit.source_text.startswith("pragma solidity")
    again = load_ast(json.dumps(unit.ast_json))
    assert again.id == unit.id
    assert again.source_text == unit.source_text
    assert again.ast_json == unit.ast_json


def test_load_ast_error_taxonomy():
    with pytest.raises(JsonError):
        load_ast("{not json")
    with pytest.raises(MalformedAst):
        load_ast("[1, 2]")
    with pytest.raises(MalformedAst):
        load_ast({})
    with pytest.raises(MalformedAst):
        load_ast({"sources": {}})
    two = {"sources": {"a.sol": {"ast": {}}, "b.sol": {"ast": {}}}}
    with pytest.raises(MalformedAst, match="flatten"):
        load_ast(two)
    with pytest.raises(MalformedAst):
        load_ast({"sources": {"a.sol": {"ast": {"nodeType": "Block"}}}})
    with pytest.raises(MalformedAst):
        load_ast({"sources": {"a.sol": {"ast": {"nodeType": "SourceUnit"}}}})
    for compiler in (True, 7, "0.8.19", ["0.8.19"]):
        doc = fixutil.load_doc("simple_ponzi")
        doc["compiler"] = compiler
        with pytest.raises(MalformedAst, match="compiler"):
            load_ast(doc)
    # A well-formed document whose contract has a non-object member fails
    # at lowering, with the same error type.
    doc = fixutil.load_doc("simple_ponzi")
    (entry,) = doc["sources"].values()
    contract = entry["ast"]["nodes"][-1]
    contract["nodes"].append(7)
    with pytest.raises(MalformedAst, match="non-object member"):
        lower(load_ast(doc))


def test_load_source_unit_reads_json_as_utf8_bytes(tmp_path):
    # json decodes the bytes: a UTF-8 byte order mark is allowed, and bytes
    # that are not UTF-8 are a JsonError.
    doc = fixutil.load_doc("simple_ponzi")
    text = json.dumps(doc, ensure_ascii=False)
    bom = tmp_path / "simple_ponzi.json"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    unit = load_source_unit(bom)
    assert unit.ast_json == doc
    assert unit.source_text == load_ast(doc).source_text
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"sources": "\xff"}')
    with pytest.raises(JsonError, match="not valid JSON"):
        load_source_unit(bad)


def test_load_ast_reports_too_deep_a_document_as_json_error():
    with pytest.raises(JsonError, match="nested too deeply"):
        load_ast(programs.deep_json_text(3000))


def test_load_source_unit_sol_and_json(tmp_path):
    sol = tmp_path / "toy.sol"
    sol.write_text("pragma solidity ^0.8.19;\ncontract Toy {}\n")
    unit = load_source_unit(sol)
    assert unit.id == "toy"
    assert unit.pragma_version == "^0.8.19"
    assert unit.ast_json is None

    js = tmp_path / "simple_ponzi.json"
    js.write_text(json.dumps(fixutil.load_doc("simple_ponzi")))
    unit2 = load_source_unit(js)
    assert unit2.id == "simple_ponzi"
    assert unit2.ast_json is not None


# --- rate limiter -------------------------------------------------------------


def test_rate_limiter_spaces_requests_evenly(monkeypatch):
    clock = {"t": 100.0}
    sleeps: list[float] = []

    monkeypatch.setattr(ingest.time, "monotonic", lambda: clock["t"])

    def fake_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        clock["t"] += seconds

    monkeypatch.setattr(ingest.time, "sleep", fake_sleep)

    limiter = RateLimiter(2)
    limiter.acquire()
    assert sleeps == []
    limiter.acquire()  # a second call in the same instant waits its turn
    assert sleeps == [pytest.approx(0.5)]
    # Once a turn has passed unused, the next call goes at once; an idle
    # spell earns no burst.
    clock["t"] += 2.0
    limiter.acquire()
    limiter.acquire()
    assert len(sleeps) == 2 and sleeps[-1] == pytest.approx(0.5)


@pytest.mark.parametrize("rate", [0.5, 2.5])
def test_rate_limiter_holds_a_fractional_rate(monkeypatch, rate):
    clock = {"t": 100.0}

    def fake_sleep(seconds: float) -> None:
        clock["t"] += seconds

    monkeypatch.setattr(ingest.time, "monotonic", lambda: clock["t"])
    monkeypatch.setattr(ingest.time, "sleep", fake_sleep)
    limiter = RateLimiter(rate)
    admitted = []
    for _ in range(12):
        limiter.acquire()
        admitted.append(clock["t"] - 100.0)
    # Every window of 4 s holds at most 4 * rate acquisitions, and the
    # limiter waits no longer than it must.
    assert all(b - a >= 4.0 - 1e-9 for a, b in zip(admitted, admitted[int(4 * rate) :]))
    assert admitted[-1] <= (len(admitted) - 1) / rate + 1e-9


def test_rate_limiter_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        RateLimiter(0)


def test_fetch_config_validation():
    with pytest.raises(ValueError):
        FetchConfig(rate_limit=0)
    with pytest.raises(ValueError):
        FetchConfig(timeout=0)
    with pytest.raises(ValueError):
        FetchConfig(max_attempts=0)


# --- explorer payload flattening ---------------------------------------------


def test_flatten_plain_source_passthrough():
    assert ingest._flatten_explorer_source("contract A {}") == "contract A {}"


def test_flatten_double_braced_standard_json():
    inner = {"language": "Solidity", "sources": {"a.sol": {"content": "contract A {}"}, "b.sol": {"content": "contract B {}"}}}
    raw = "{" + json.dumps(inner) + "}"
    flat = ingest._flatten_explorer_source(raw)
    assert "// ---- file: a.sol ----" in flat
    assert "contract A {}" in flat and "contract B {}" in flat
    assert flat.index("a.sol") < flat.index("b.sol")


def test_flatten_single_braced_sources_object():
    raw = json.dumps({"sources": {"only.sol": {"content": "contract O {}"}}})
    flat = ingest._flatten_explorer_source(raw)
    assert flat == "// ---- file: only.sol ----\ncontract O {}"


def test_flatten_bad_json_left_alone():
    raw = "{{ not json }}"
    assert ingest._flatten_explorer_source(raw) == raw


def test_flatten_too_deep_json_left_alone():
    raw = '{"sources": %s}' % DEEP
    assert ingest._flatten_explorer_source(raw) == raw


def _stand_in_solc(tmp_path, monkeypatch, output: str) -> None:
    """Put the only compiler on PATH: it prints its version, or `output`
    for a compile."""
    solc = tmp_path / "solc"
    solc.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "if '--version' in sys.argv:\n"
        "    print('Version: 0.8.19')\n"
        "else:\n"
        "    sys.stdin.read()\n"
        f"    print({output!r})\n"
    )
    solc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.delenv("SOLC_BINARY", raising=False)


def test_compile_source_reports_too_deep_compiler_output_as_compile_error(tmp_path, monkeypatch):
    _stand_in_solc(tmp_path, monkeypatch, DEEP)
    unit = SourceUnit(id="d", source_text="pragma solidity ^0.8.19;\ncontract D {}\n")
    with pytest.raises(CompileError, match="invalid JSON"):
        compile_source(unit)


def test_compile_error_quotes_the_first_diagnostic_and_counts_the_rest(tmp_path, monkeypatch):
    # The compiler rejects the source with two errors and a warning.
    first = "ParserError: Expected ';' but got '}'\n --> e.sol:2:14:\n"
    errors = [
        {"severity": "warning", "formattedMessage": "Warning: unused"},
        {"severity": "error", "formattedMessage": first},
        {"severity": "error", "formattedMessage": "DeclarationError: Undeclared identifier."},
    ]
    _stand_in_solc(tmp_path, monkeypatch, json.dumps({"errors": errors}))
    unit = SourceUnit(id="e", source_text="pragma solidity ^0.8.19;\ncontract E { uint x }\n")
    with pytest.raises(CompileError) as failed:
        compile_source(unit)
    assert str(failed.value) == f"compilation failed: {first.rstrip()} (and 1 more error(s))"
    assert failed.value.diagnostics == [first, "DeclarationError: Undeclared identifier."]


# --- fetch over a real local HTTP server --------------------------------------


class _Handler(BaseHTTPRequestHandler):
    script: list[tuple[int, dict, bytes]] = []
    seen: list[str] = []

    def do_GET(self):  # noqa: N802
        _Handler.seen.append(self.path)
        status, headers, body = _Handler.script.pop(0)
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def explorer():
    _Handler.script = []
    _Handler.seen = []
    with serve(_Handler) as url:
        yield url + "/api"


def _ok_body(source: str, version: str = "v0.8.19+commit.7dd6d404") -> bytes:
    return json.dumps(
        {"status": "1", "result": [{"SourceCode": source, "CompilerVersion": version}]}
    ).encode()


def _cfg(url: str, **kw) -> FetchConfig:
    kw.setdefault("api_key", "testkey")
    kw.setdefault("rate_limit", 10000.0)
    kw.setdefault("timeout", 5.0)
    return FetchConfig(api_base_url=url, **kw)


def test_fetch_happy_path(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [(200, {}, _ok_body("pragma solidity ^0.8.19; contract A {}"))]
    unit = fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert unit.id == GOOD_ADDRESS
    assert unit.source_text.startswith("pragma solidity")
    assert unit.compiler_version == "v0.8.19+commit.7dd6d404"
    assert len(_Handler.seen) == 1
    query = _Handler.seen[0]
    assert "module=contract" in query
    assert "action=getsourcecode" in query
    assert f"address={GOOD_ADDRESS}" in query
    assert "apikey=testkey" in query


def test_fetch_flattens_wrapped_payload(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    inner = {"sources": {"x.sol": {"content": "contract X {}"}}}
    wrapped = "{" + json.dumps(inner) + "}"
    _Handler.script = [(200, {}, _ok_body(wrapped))]
    unit = fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert unit.source_text == "// ---- file: x.sol ----\ncontract X {}"


def test_fetch_reports_too_deep_a_reply_as_json_error(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [(200, {}, ('{"result": %s}' % DEEP).encode())]
    with pytest.raises(JsonError, match="not JSON"):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))


def test_run_batch_records_too_deep_an_explorer_reply_as_an_ingest_error(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [(200, {}, ('{"result": %s}' % DEEP).encode())]
    manifest = DatasetManifest(
        [
            ManifestEntry(id="deep", path_or_address=GOOD_ADDRESS, label="non_ponzi"),
            ManifestEntry(
                id="sp", path_or_address=str(fixutil.fixture_path("simple_ponzi")), label="ponzi"
            ),
        ],
    )
    deep, sp = run_batch(manifest, LlmConfig(), repeats=1, fetch_cfg=_cfg(explorer))
    assert deep.error["phase"] == "ingest"
    assert deep.error["message"].startswith("explorer reply is not JSON")
    assert sp.final_verdict is True


def test_fetch_env_key_overrides_config(explorer, monkeypatch):
    monkeypatch.setenv(ETHERSCAN_KEY_ENV, "envkey")
    _Handler.script = [(200, {}, _ok_body("contract E {}"))]
    fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, api_key="cfgkey"))
    assert "apikey=envkey" in _Handler.seen[0]


def test_fetch_requires_some_key(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    with pytest.raises(AuthError):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, api_key=""))
    assert _Handler.seen == []


def test_fetch_rejects_malformed_address_before_network(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    with pytest.raises(ValueError):
        fetch_verified_source("0xdeadbeef", _cfg(explorer))
    assert _Handler.seen == []


def test_fetch_retries_http_429_honoring_retry_after(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(ingest.time, "sleep", lambda s: sleeps.append(s))
    _Handler.script = [
        (429, {"Retry-After": "0.25"}, b"slow down"),
        (200, {}, _ok_body("contract R {}")),
    ]
    unit = fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert unit.source_text == "contract R {}"
    assert len(_Handler.seen) == 2
    assert 0.25 in sleeps

    # An HTTP-date value is honoured too, capped like a delta-seconds one.
    later = datetime.now(timezone.utc) + timedelta(seconds=60)
    before = len(sleeps)
    _Handler.script = [
        (429, {"Retry-After": email.utils.format_datetime(later, usegmt=True)}, b""),
        (200, {}, _ok_body("contract R {}")),
    ]
    fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert 5.0 in sleeps[before:]


def test_fetch_retries_rate_limit_reply_text(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    monkeypatch.setattr(ingest.time, "sleep", lambda s: None)
    body = json.dumps({"status": "0", "result": "Max rate limit reached"}).encode()
    _Handler.script = [(200, {}, body), (200, {}, _ok_body("contract L {}"))]
    unit = fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert unit.source_text == "contract L {}"
    assert len(_Handler.seen) == 2


def test_fetch_server_errors_exhaust_attempts(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    monkeypatch.setattr(ingest.time, "sleep", lambda s: None)
    _Handler.script = [(500, {}, b"boom")] * 3
    with pytest.raises(NetworkError):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, max_attempts=3))
    assert len(_Handler.seen) == 3


def test_fetch_waits_a_jittered_backoff_between_server_errors(explorer, monkeypatch):
    # Without a wait, three attempts land within milliseconds of each other.
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(ingest.time, "sleep", sleeps.append)
    ok = (200, {}, _ok_body("contract B {}"))
    _Handler.script = [(503, {}, b"busy"), (503, {}, b"busy"), ok]
    unit = fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, max_attempts=3))
    assert unit.source_text == "contract B {}"
    assert len(_Handler.seen) == 3
    assert len(sleeps) == 2
    bounds = transport._BACKOFF[:2]
    assert all(0 <= s <= bound for s, bound in zip(sleeps, bounds))
    # A Retry-After still sets the wait.
    sleeps.clear()
    _Handler.script = [(503, {}, b"busy"), (429, {"Retry-After": "3"}, b""), ok]
    fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, max_attempts=3))
    assert len(sleeps) == 2 and sleeps[0] <= bounds[0] and sleeps[1] == 3.0


def test_fetch_429_without_retry_after_waits_a_jittered_backoff(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(ingest.time, "sleep", sleeps.append)
    monkeypatch.setattr(transport.random, "uniform", lambda low, high: high)
    ok = (200, {}, _ok_body("contract W {}"))
    _Handler.script = [(429, {}, b""), (429, {"Retry-After": "soon"}, b""), ok]
    fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, max_attempts=3))
    assert sleeps == list(transport._BACKOFF[:2])


def test_fetch_invalid_key_is_fatal(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    body = json.dumps({"status": "0", "result": "Invalid API Key"}).encode()
    _Handler.script = [(200, {}, body)]
    with pytest.raises(AuthError):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert len(_Handler.seen) == 1


def test_fetch_unverified_is_fatal(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    body = json.dumps(
        {"status": "0", "result": "Contract source code not verified"}
    ).encode()
    _Handler.script = [(200, {}, body)]
    with pytest.raises(NotVerified):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))


def test_fetch_empty_source_is_unverified(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [(200, {}, _ok_body(""))]
    with pytest.raises(NotVerified):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))


@pytest.mark.parametrize(
    "body, message",
    [
        ([], "no result entries"),
        ({"result": [5]}, "result entry is not an object"),
        ({"result": [{"SourceCode": 5}]}, "SourceCode is not a string"),
    ],
)
def test_fetch_refuses_a_malformed_reply_shape(explorer, monkeypatch, body, message):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [(200, {}, json.dumps(body).encode())]
    with pytest.raises(NetworkError, match=message):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer))
    assert len(_Handler.seen) == 1


def _fetched_params(path: str) -> dict[str, str]:
    return dict(parse_qsl(urlsplit(path).query))


def test_fetch_appends_its_parameters_to_the_base_query(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [(200, {}, _ok_body("contract Q {}"))]
    fetch_verified_source(GOOD_ADDRESS, _cfg(explorer + "?chainid=1"))
    (path,) = _Handler.seen
    assert urlsplit(path).path == "/api"
    assert urlsplit(path).query.startswith("chainid=1&")
    assert _fetched_params(path) == {
        "chainid": "1",
        "module": "contract",
        "action": "getsourcecode",
        "address": GOOD_ADDRESS,
        "apikey": "testkey",
    }


def test_fetch_does_not_follow_a_redirect(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    _Handler.script = [
        (301, {"Location": "/moved"}, b""),
        (200, {}, _ok_body("contract M {}")),
    ]
    with pytest.raises(NetworkError, match="HTTP 301"):
        fetch_verified_source(GOOD_ADDRESS, _cfg(explorer, max_attempts=3))
    assert len(_Handler.seen) == 1


def test_fetch_refuses_a_file_base_and_sends_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    reply = tmp_path / "api"
    reply.write_bytes(_ok_body("contract F {}"))
    monkeypatch.setattr(transport, "request", lambda *a, **k: pytest.fail("a request was sent"))
    with pytest.raises(NetworkError, match="not an http or https URL"):
        fetch_verified_source(GOOD_ADDRESS, _cfg(reply.as_uri(), max_attempts=3))


def test_fetch_tries_a_refused_port_max_attempts_times(monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    monkeypatch.setattr(ingest.time, "sleep", lambda s: None)
    dials: list[tuple] = []
    dial = socket.create_connection

    def counted(address, *args, **kwargs):
        dials.append(address)
        return dial(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    port = free_port()
    with pytest.raises(NetworkError, match="explorer request failed"):
        fetch_verified_source(GOOD_ADDRESS, _cfg(f"http://127.0.0.1:{port}/api", max_attempts=4))
    assert dials == [("127.0.0.1", port)] * 4


SECRET = "SECRETKEY0123"


@contextlib.contextmanager
def _unreachable(kind: str):
    """An explorer base URL whose request fails in the transport: a closed
    port, a listener that never answers, or a path http.client refuses,
    which it quotes in its error."""
    if kind == "timeout":
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(4)
            yield f"http://127.0.0.1:{listener.getsockname()[1]}/api"
    else:
        port = free_port()
        yield f"http://127.0.0.1:{port}/" + ("api" if kind == "refused" else "my api")


@pytest.mark.parametrize("kind", ["refused", "timeout", "bad path"])
def test_fetch_failure_message_never_carries_the_key(monkeypatch, kind):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    with _unreachable(kind) as url:
        with pytest.raises(NetworkError) as failed:
            fetch_verified_source(
                GOOD_ADDRESS, _cfg(url, api_key=SECRET, timeout=0.2, max_attempts=1)
            )
    assert str(failed.value).startswith("explorer request failed")
    assert SECRET not in str(failed.value)


@pytest.mark.parametrize("refusal", ["bad path", "bad header"])
def test_fetch_fails_at_once_on_a_request_http_client_refuses(monkeypatch, refusal):
    """Sending it again would fail the same way: one attempt, no backoff
    sleep, and a message without the key."""
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    sleeps: list[float] = []
    monkeypatch.setattr(ingest.time, "sleep", sleeps.append)
    sent = []
    real = transport.request

    def request(url, *args, **kwargs):
        sent.append(url)
        if refusal == "bad header":
            raise ValueError(f"Invalid header value for {url!r}")
        return real(url, *args, **kwargs)

    monkeypatch.setattr(transport, "request", request)
    with _unreachable("bad path" if refusal == "bad path" else "refused") as url:
        with pytest.raises(NetworkError, match="explorer request failed before sending") as failed:
            fetch_verified_source(GOOD_ADDRESS, _cfg(url, api_key=SECRET, max_attempts=3))
    assert len(sent) == 1 and sleeps == []
    assert SECRET not in str(failed.value)


def test_run_batch_journals_no_explorer_key(tmp_path, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    monkeypatch.setattr(ingest.time, "sleep", lambda s: None)
    manifest = DatasetManifest(
        [ManifestEntry(id="gone", path_or_address=GOOD_ADDRESS, label="non_ponzi")],
    )
    journal = tmp_path / "reports.jsonl"
    with _unreachable("refused") as url:
        (gone,) = run_batch(
            manifest, LlmConfig(), repeats=1, journal=journal, fetch_cfg=_cfg(url, api_key=SECRET)
        )
    assert gone.error["phase"] == "ingest"
    assert gone.error["message"].startswith("explorer request failed")
    assert SECRET not in journal.read_text()


class _ProxyHandler(BaseHTTPRequestHandler):
    """A forward proxy that answers every request itself."""

    request_lines: list[str] = []

    def do_GET(self):  # noqa: N802
        _ProxyHandler.request_lines.append(self.requestline)
        body = _ok_body("contract P {}")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_no_proxy_bypasses_the_http_proxy(explorer, monkeypatch):
    monkeypatch.delenv(ETHERSCAN_KEY_ENV, raising=False)
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setattr(transport, "_proxies", None)
    _ProxyHandler.request_lines = []
    with serve(_ProxyHandler) as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy)
        assert fetch_verified_source(GOOD_ADDRESS, _cfg(explorer)).source_text == "contract P {}"
        # A proxy is sent the absolute URI; the explorer itself saw nothing.
        (line,) = _ProxyHandler.request_lines
        assert line.startswith(f"GET {explorer}?")
        assert _Handler.seen == []

        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        _Handler.script = [(200, {}, _ok_body("contract D {}"))]
        assert fetch_verified_source(GOOD_ADDRESS, _cfg(explorer)).source_text == "contract D {}"
        assert len(_ProxyHandler.request_lines) == 1
        assert len(_Handler.seen) == 1


_LOADED_BY_IMPORT = """
import sys
before = set(sys.modules)
import ponzilens
print(sorted({"requests", "certifi"} & (set(sys.modules) - before)))
"""


def test_importing_the_package_loads_neither_requests_nor_certifi():
    # Compared with what the interpreter had loaded before, as a site hook
    # may load certifi at start-up.
    src = Path(ingest.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_IMPORT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
