"""Kept-alive connections in ponzilens.transport, against loopback HTTP/1.1
servers."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

import pytest

import ponzilens.detect as detect_mod
import ponzilens.transport as transport
from loopback import idle, serve
from ponzilens.detect import API_KEY_ENV, BACKEND_HTTP, LlmConfig, PromptBundle, PromptParts


class _EchoHandler(BaseHTTPRequestHandler):
    """Answers each POST with a chat completion whose content is the request
    body, keeping the connection open. Like any http.server handler by
    default, it writes the headers and the body in two sends with Nagle's
    algorithm on. It keeps the client port of every request. /close answers
    with `Connection: close`, /hangup closes the connection after answering
    without saying so, and /stall sends one byte of its body and waits for
    `release`."""

    protocol_version = "HTTP/1.1"
    ports: list[int] = []
    release = threading.Event()

    def do_POST(self):  # noqa: N802
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        _EchoHandler.ports.append(self.client_address[1])
        body = json.dumps({"choices": [{"message": {"content": raw.decode()}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        if self.path == "/close":
            self.send_header("Connection", "close")
        self.end_headers()
        if self.path == "/stall":
            self.wfile.write(body[:1])
            _EchoHandler.release.wait(timeout=10)
            self.close_connection = True
            return
        self.wfile.write(body)
        if self.path == "/hangup":
            self.close_connection = True

    def log_message(self, *args):
        pass


class _Http10Handler(_EchoHandler):
    protocol_version = "HTTP/1.0"


@pytest.fixture()
def echo():
    _EchoHandler.ports = []
    _EchoHandler.release = threading.Event()
    try:
        with serve(_EchoHandler) as url:
            yield url
    finally:
        _EchoHandler.release.set()


def _post(url: str, text: str = "hi", *, timeout: float = 5.0) -> str:
    status, _headers, body = transport.request(url, text.encode(), timeout=timeout)
    assert status == 200
    return json.loads(body)["choices"][0]["message"]["content"]


def test_keep_alive_serves_sequential_requests_on_one_connection(echo):
    for i in range(5):
        assert _post(echo + "/", f"request {i}") == f"request {i}"
    assert len(set(_EchoHandler.ports)) == 1
    assert len(idle(echo)) == 1
    (conn,) = idle(echo)
    assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_keep_alive_never_shares_a_connection_between_concurrent_requests(echo):
    """Eight threads post 25 requests each, with short switch intervals;
    every reply must carry its own request's body."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            texts = [f"thread {t} request {i}" for t in range(8) for i in range(25)]
            replies = list(pool.map(lambda text: _post(echo + "/", text), texts))
    finally:
        sys.setswitchinterval(interval)
    assert replies == texts
    assert 1 <= len(set(_EchoHandler.ports)) <= 8
    assert 1 <= len(idle(echo)) <= 8


@pytest.mark.parametrize("reply", ["HTTP/1.0", "Connection: close"])
def test_keep_alive_pools_no_connection_its_reply_closes(reply):
    _EchoHandler.ports = []
    handler = _Http10Handler if reply == "HTTP/1.0" else _EchoHandler
    with serve(handler) as url:
        path = "/close" if reply == "Connection: close" else "/"
        assert [_post(url + path, "one"), _post(url + path, "two")] == ["one", "two"]
        assert len(idle(url)) == 0
        assert len(set(_EchoHandler.ports)) == 2


def test_keep_alive_pools_no_connection_whose_body_read_timed_out(echo):
    with pytest.raises(TimeoutError):
        _post(echo + "/stall", timeout=0.2)
    assert len(idle(echo)) == 0
    _EchoHandler.release.set()
    assert _post(echo + "/") == "hi"
    assert len(set(_EchoHandler.ports)) == 2


def _closed_by_server(url: str) -> None:
    """Wait until the server has closed the one idle connection to `url`."""
    (conn,) = idle(url)
    deadline = time.monotonic() + 5
    while not transport._dropped(conn.sock):
        assert time.monotonic() < deadline, "the server kept the connection"
        time.sleep(0.005)


@pytest.mark.parametrize("check", ["dropped before reuse", "failed on reuse"])
def test_keep_alive_resends_at_once_on_a_connection_the_server_closed(echo, monkeypatch, check):
    """A reused connection the server closed costs no attempt and no pause:
    the chat request below has one attempt and must still succeed."""
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    monkeypatch.setattr(transport, "pause", lambda *a: pytest.fail("paused"))
    assert _post(echo + "/hangup") == "hi"
    assert len(idle(echo)) == 1
    _closed_by_server(echo)
    if check == "failed on reuse":
        # The server has closed it, but the client sends on it anyway.
        monkeypatch.setattr(transport, "_dropped", lambda sock: False)
    sent_on = []
    exchange = transport._exchange
    monkeypatch.setattr(transport, "_exchange", lambda *a: sent_on.append(a[1]) or exchange(*a))
    cfg = LlmConfig(backend=BACKEND_HTTP, endpoint=echo + "/", max_attempts=1)
    prompt = PromptBundle("analysis", "say hi", PromptParts(), "t", 2)
    reply = detect_mod.complete(prompt, cfg)
    assert json.loads(reply.text)["messages"] == [{"role": "user", "content": "say hi"}]
    assert len(_EchoHandler.ports) == 2 and len(set(_EchoHandler.ports)) == 2
    assert len(sent_on) == (1 if check == "dropped before reuse" else 2)
    assert len(idle(echo)) == 1


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="Linux only")
def test_keep_alive_avoids_the_delayed_ack_stall(echo):
    """The server writes each reply in two sends with Nagle's algorithm on,
    so on a reused connection the body waits for the client's ACK of the
    headers; a delayed ACK would cost about 40 ms a request, 0.8 s here."""
    _post(echo + "/")
    started = time.perf_counter()
    for _ in range(20):
        _post(echo + "/", "x" * 2000)
    assert time.perf_counter() - started < 0.5
    assert len(set(_EchoHandler.ports)) == 1
