"""Kept-alive connections, reply framing, proxies and request headers in
ponzilens.transport, against loopback HTTP/1.1 servers."""

from __future__ import annotations

import base64
import contextlib
import json
import os
import select
import socket
import ssl
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

import pytest

import ponzilens.detect as detect_mod
import ponzilens.transport as transport
from loopback import free_port, idle, serve, trust_cert
from ponzilens.detect import (
    API_KEY_ENV,
    BACKEND_HTTP,
    BackendUnavailable,
    LlmConfig,
    PromptBundle,
    PromptParts,
)


class _EchoHandler(BaseHTTPRequestHandler):
    """Answers each POST with a chat completion whose content is the request
    body, keeping the connection open. Like any http.server handler by
    default, it writes the headers and the body in two sends with Nagle's
    algorithm on. It keeps the client port and the header fields of every
    request. /close answers with `Connection: close`, /hangup closes the
    connection after answering without saying so, and /stall sends one byte
    of its body and waits for `release`. /chunked answers in chunks, with a
    chunk extension and a trailer; /eof gives neither a length nor chunking
    and closes the connection to end the body. While `raw` holds replies,
    each request is answered with the first, as it is, and the connection
    closed."""

    protocol_version = "HTTP/1.1"
    ports: list[int] = []
    fields: list[list[tuple[str, str]]] = []
    release = threading.Event()
    raw: list[bytes] = []

    def do_GET(self):  # noqa: N802
        self.do_POST()

    def do_POST(self):  # noqa: N802
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        _EchoHandler.ports.append(self.client_address[1])
        _EchoHandler.fields.append(list(self.headers.items()))
        body = json.dumps({"choices": [{"message": {"content": raw.decode()}}]}).encode()
        if _EchoHandler.raw:
            self.wfile.write(_EchoHandler.raw.pop(0))
            self.close_connection = True
            return
        if self.path == "/chunked":
            half = len(body) // 2
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"%x;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
                % (half, body[:half], len(body) - half, body[half:])
            )
            return
        if self.path == "/eof":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + body)
            self.close_connection = True
            return
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
    _EchoHandler.fields = []
    _EchoHandler.raw = []
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
    (sock,) = idle(echo)
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


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
    (sock,) = idle(url)
    deadline = time.monotonic() + 5
    while not transport._dropped(sock):
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


def test_a_request_is_one_send(echo, monkeypatch):
    """The request line, the header fields and the body leave in one
    sendall, on a new connection and on a reused one."""
    sent = []
    real = socket.socket.sendall
    port = int(echo.rsplit(":", 1)[1])

    def sendall(self, data, *args):
        if self.getpeername()[1] == port:  # the client's, not the server's
            sent.append(bytes(data))
        return real(self, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", sendall)
    assert [_post(echo + "/", "one"), _post(echo + "/", "two")] == ["one", "two"]
    assert [message.split(b"\r\n", 1)[0] for message in sent] == [b"POST / HTTP/1.1"] * 2
    assert [message.split(b"\r\n\r\n", 1)[1] for message in sent] == [b"one", b"two"]
    assert len(set(_EchoHandler.ports)) == 1


def test_dropped_watches_a_descriptor_above_1023(echo):
    """select.select cannot watch a descriptor of 1024 or more; a pooled
    connection there must still be reused, and still be seen closed."""
    resource = pytest.importorskip("resource")
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1600:
        pytest.skip("RLIMIT_NOFILE below 1600")
    try:
        os.fstat(1500)
        pytest.skip("descriptor 1500 is in use")
    except OSError:
        pass
    assert _post(echo + "/") == "hi"
    stack = idle(echo)
    (sock,) = stack
    stack[0] = socket.socket(fileno=os.dup2(sock.fileno(), 1500))
    sock.close()
    assert not transport._dropped(stack[0])
    assert _post(echo + "/hangup", "again") == "again"
    assert len(set(_EchoHandler.ports)) == 1
    (high,) = idle(echo)
    assert high.fileno() == 1500
    _closed_by_server(echo)


def test_a_chunked_reply_is_read_whole_and_its_connection_pooled(echo):
    assert [_post(echo + "/chunked", f"chunk {i}") for i in range(3)] == [
        "chunk 0",
        "chunk 1",
        "chunk 2",
    ]
    assert len(set(_EchoHandler.ports)) == 1
    assert len(idle(echo)) == 1


def test_a_reply_without_length_is_read_to_close_and_not_pooled(echo):
    assert [_post(echo + "/eof", "one"), _post(echo + "/eof", "two")] == ["one", "two"]
    assert len(set(_EchoHandler.ports)) == 2
    assert len(idle(echo)) == 0


@pytest.mark.parametrize("attempts", [1, 2])
def test_a_garbage_status_line_is_a_transport_error_and_retried(echo, monkeypatch, attempts):
    """It costs an attempt, like any failed exchange, and is not a request
    refused before sending."""
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    pauses = []
    monkeypatch.setattr(transport, "pause", lambda attempt, asked=None: pauses.append(attempt))
    _EchoHandler.raw = [b"garbage\r\n\r\n"]
    cfg = LlmConfig(backend=BACKEND_HTTP, endpoint=echo + "/", max_attempts=attempts)
    prompt = PromptBundle("analysis", "say hi", PromptParts(), "t", 2)
    if attempts == 1:
        with pytest.raises(BackendUnavailable, match="after 1 attempts") as failed:
            detect_mod.complete(prompt, cfg)
        assert "before sending" not in str(failed.value)
        assert pauses == []
    else:
        reply = detect_mod.complete(prompt, cfg)
        assert json.loads(reply.text)["messages"] == [{"role": "user", "content": "say hi"}]
        assert pauses == [1]
    assert len(_EchoHandler.ports) == attempts


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 0x10\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\nhello\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhello\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
        b"HTTP/1.1 200 OK\r\nContent-Le",
    ],
)
def test_a_malformed_reply_is_an_http_exception_never_a_value_error(echo, reply):
    """ValueError means a request refused before sending; a reply that
    breaks framing is a failed exchange instead."""
    _EchoHandler.raw = [reply]
    with pytest.raises(transport.ERRORS) as failed:
        _post(echo + "/")
    assert not isinstance(failed.value, transport.REFUSED)
    assert len(idle(echo)) == 0


def _names(fields: list[tuple[str, str]]) -> list[str]:
    return sorted(name for name, _ in fields)


def test_a_plain_request_carries_exactly_the_default_header_fields(echo, monkeypatch):
    """A GET carries Host, Accept-Encoding and User-Agent; a chat POST adds
    the body's length and type and the key."""
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    status, _headers, _body = transport.request(echo + "/get?x=1", timeout=5)
    assert status == 200
    cfg = LlmConfig(backend=BACKEND_HTTP, endpoint=echo + "/", max_attempts=1)
    detect_mod.complete(PromptBundle("analysis", "say hi", PromptParts(), "t", 2), cfg)
    get, post = _EchoHandler.fields
    assert _names(get) == ["Accept-Encoding", "Host", "User-Agent"]
    assert _names(post) == [
        "Accept-Encoding",
        "Authorization",
        "Content-Length",
        "Content-Type",
        "Host",
        "User-Agent",
    ]
    netloc = echo.split("//", 1)[1]
    version = "%d.%d" % sys.version_info[:2]
    for fields in (get, post):
        assert dict(fields)["Host"] == netloc
        assert dict(fields)["Accept-Encoding"] == "identity"
        assert dict(fields)["User-Agent"] == f"Python-urllib/{version}"
    assert dict(post)["Authorization"] == "Bearer sk-test"


class _ProxyHandler(BaseHTTPRequestHandler):
    """A forward proxy that keeps each request line and its header fields,
    refuses every CONNECT and answers every other request itself."""

    protocol_version = "HTTP/1.1"
    seen: list[tuple[str, list[tuple[str, str]]]] = []

    def do_CONNECT(self):  # noqa: N802
        _ProxyHandler.seen.append((self.requestline, list(self.headers.items())))
        self.send_response(403)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_POST(self):  # noqa: N802
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        _ProxyHandler.seen.append((self.requestline, list(self.headers.items())))
        body = json.dumps({"choices": [{"message": {"content": raw.decode()}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _RelayHandler(_ProxyHandler):
    """A forward proxy that keeps each request line and its header fields,
    grants every CONNECT and relays the tunnel's bytes both ways until
    either end closes."""

    def do_CONNECT(self):  # noqa: N802
        _ProxyHandler.seen.append((self.requestline, list(self.headers.items())))
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
            _relay(self.connection, upstream)
        self.close_connection = True


def _relay(a: socket.socket, b: socket.socket) -> None:
    """Copy bytes between `a` and `b` until one closes; an SSLSocket may
    hold decrypted bytes that select does not see."""
    ends = [a, b]
    while True:
        ready = [end for end in ends if isinstance(end, ssl.SSLSocket) and end.pending()]
        ready = ready or select.select(ends, [], [], 10)[0]
        if not ready:
            return
        for end in ready:
            data = end.recv(16384)
            if not data:
                return
            (b if end is a else a).sendall(data)


_BASIC = "Basic " + base64.b64encode(b"user:p w").decode()


@contextlib.contextmanager
def _proxy(monkeypatch, handler=_ProxyHandler, *, tls=False):
    """A loopback proxy running `handler`, over TLS when `tls`, with user
    `user` and password `p w`; yields its URL with them. The proxy
    variables are cleared and the transport reads them afresh."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setattr(transport, "_proxies", None)
    monkeypatch.setattr(transport, "pause", lambda *a: None)
    monkeypatch.setenv(API_KEY_ENV, "sk-SECRET0123")
    _ProxyHandler.seen = []
    with serve(handler, tls=tls) as url:
        yield url.replace("://", "://user:p%20w@")


@pytest.fixture()
def proxy(monkeypatch):
    with _proxy(monkeypatch) as url:
        yield url


@pytest.fixture()
def tls_echo(monkeypatch):
    """The echo server over TLS, with the client trusting its certificate."""
    trust_cert(monkeypatch)
    _EchoHandler.ports = []
    _EchoHandler.fields = []
    _EchoHandler.raw = []
    with serve(_EchoHandler, tls=True) as url:
        yield url


def test_an_https_request_tunnels_through_the_proxy_with_its_credentials(proxy, monkeypatch):
    """The proxy is asked to CONNECT with its own credentials and never sees
    the bearer key; a refused tunnel is a failed exchange."""
    monkeypatch.setenv("HTTPS_PROXY", proxy)
    port = free_port()
    cfg = LlmConfig(
        backend=BACKEND_HTTP, endpoint=f"https://127.0.0.1:{port}/v1", max_attempts=2
    )
    with pytest.raises(BackendUnavailable, match="after 2 attempts"):
        detect_mod.complete(PromptBundle("analysis", "say hi", PromptParts(), "t", 2), cfg)
    assert len(_ProxyHandler.seen) == 2
    for line, fields in _ProxyHandler.seen:
        assert line == f"CONNECT 127.0.0.1:{port} HTTP/1.1"
        assert dict(fields)["Proxy-Authorization"] == _BASIC
        assert "Authorization" not in dict(fields)
        assert "sk-SECRET0123" not in repr(fields)


@pytest.mark.parametrize("proxy_scheme", ["http", "https"])
def test_an_http_request_goes_to_the_proxy_with_its_credentials(monkeypatch, proxy_scheme):
    """An https:// proxy is spoken to over TLS, which the loopback proxy
    alone speaks then, so its credentials never travel in clear."""
    with _proxy(monkeypatch, tls=proxy_scheme == "https") as proxy_url:
        if proxy_scheme == "https":
            trust_cert(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", proxy_url)
        port = free_port()
        endpoint = f"http://127.0.0.1:{port}/v1"
        assert [_post(endpoint, "via proxy"), _post(endpoint, "again")] == ["via proxy", "again"]
        assert len(idle(endpoint, proxy_url)) == 1
    for line, fields in _ProxyHandler.seen:
        assert line == f"POST {endpoint} HTTP/1.1"
        assert dict(fields)["Proxy-Authorization"] == _BASIC
        assert dict(fields)["Host"] == f"127.0.0.1:{port}"
    assert len(_ProxyHandler.seen) == 2


def test_an_https_reply_is_read_and_its_tls_socket_pooled(tls_echo):
    """Requests share one verified TLS connection; one the server closed
    while idle is seen closed and replaced, at no cost to the caller."""
    assert [_post(tls_echo + "/", f"request {i}") for i in range(3)] == [
        "request 0",
        "request 1",
        "request 2",
    ]
    assert _post(tls_echo + "/chunked", "chunked") == "chunked"
    (sock,) = idle(tls_echo)
    assert isinstance(sock, ssl.SSLSocket) and not transport._dropped(sock)
    assert len(set(_EchoHandler.ports)) == 1
    assert _post(tls_echo + "/hangup", "last") == "last"
    _closed_by_server(tls_echo)
    assert _post(tls_echo + "/", "new") == "new"
    assert len(set(_EchoHandler.ports)) == 2


def test_an_https_server_is_verified(monkeypatch):
    """Without its certificate in the CA bundle, the server is refused."""
    monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    monkeypatch.setattr(transport, "_tls", None)
    with serve(_EchoHandler, tls=True) as url:
        with pytest.raises(ssl.SSLCertVerificationError):
            _post(url + "/")
        assert len(idle(url)) == 0


@pytest.mark.parametrize("proxy_scheme", ["http", "https"])
def test_an_https_request_runs_tls_through_the_tunnel(tls_echo, monkeypatch, proxy_scheme):
    """Through an http:// proxy the tunnel is plain TCP, through an https://
    one TLS to the proxy, with the server's TLS inside either way. The
    tunnel is pooled: one CONNECT carries every request, the proxy's
    credentials go to the proxy alone, and the bearer key to the server
    alone."""
    with _proxy(monkeypatch, _RelayHandler, tls=proxy_scheme == "https") as proxy_url:
        monkeypatch.setenv("HTTPS_PROXY", proxy_url)
        cfg = LlmConfig(backend=BACKEND_HTTP, endpoint=tls_echo + "/v1", max_attempts=1)
        for _ in range(3):
            reply = detect_mod.complete(PromptBundle("analysis", "hi", PromptParts(), "t", 2), cfg)
            assert json.loads(reply.text)["messages"] == [{"role": "user", "content": "hi"}]
        (sock,) = idle(tls_echo, proxy_url)
        inner = sock._tls if proxy_scheme == "https" else sock
        assert inner.getpeercert()["subjectAltName"]  # empty when unverified
    ((line, fields),) = _ProxyHandler.seen
    assert line == f"CONNECT {tls_echo.split('//')[1]} HTTP/1.1"
    assert dict(fields)["Proxy-Authorization"] == _BASIC
    assert "sk-SECRET0123" not in repr(fields)
    assert len(_EchoHandler.fields) == 3 and len(set(_EchoHandler.ports)) == 1
    for fields in _EchoHandler.fields:
        assert dict(fields)["Authorization"] == "Bearer sk-SECRET0123"
        assert "Proxy-Authorization" not in dict(fields)


def test_a_proxy_url_names_its_port_by_its_scheme():
    assert transport._proxy_route("https://p.example")[:3] == ("p.example", 443, True)
    assert transport._proxy_route("http://p.example")[:3] == ("p.example", 80, False)
    assert transport._proxy_route("p.example:3128")[:3] == ("p.example", 3128, False)
    with pytest.raises(OSError, match="unsupported proxy scheme"):
        transport._proxy_route("socks5://p.example:1080")
