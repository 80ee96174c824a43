"""HTTP for the package: explorer downloads and chat completions.

Every request is one HTTP/1.1 exchange (RFC 9112) on a kept-alive socket,
written here on the standard library's sockets and TLS:

  * the request line, the header fields and the body go out in one send.
    The fields are Host, Accept-Encoding: identity, Content-Length when
    there is a body and User-Agent: Python-urllib/<version>, then the
    caller's;
  * the reply's status line and header fields are split by hand, and its
    body is read by Content-Length, in chunks, or up to the close;
  * proxies come from HTTP_PROXY/HTTPS_PROXY, read at the first request,
    and from NO_PROXY, read per request while a proxy is set. An https://
    proxy is spoken to over TLS (port 443 unless given), an http:// one over
    plain TCP (port 80). An http request is sent to it with the absolute
    URI, an https one goes through a CONNECT tunnel, and the user and
    password of a proxy URL go to the proxy alone, as Proxy-Authorization;
  * https is verified against certifi's CA bundle, or REQUESTS_CA_BUNDLE/
    CURL_CA_BUNDLE when set, loaded at the first https request, so a
    process that only talks to http endpoints never loads it;
  * no redirect is followed and no status raises, so every reply comes back
    to the caller as its status, headers and body.

Idle sockets wait on one process-wide LIFO stack per scheme, host:port and
proxy. A socket goes back once its reply has been read in full, unless the
reply is not HTTP/1.1, asks to close, ends at the close, or anything
raised; idle sockets are closed at exit. One in use belongs to one request,
so concurrent requests never share one. A socket the server closed while
idle is dropped before reuse, and a request that still finds its reused
socket closed or reset is sent once more, at once, on a new one; the caller
sees one exchange. Each new socket sets TCP_NODELAY, and the client asks
for TCP_QUICKACK after each send where the platform has it: a server that
writes a reply's headers and body in two sends with Nagle's algorithm on
(any http.server handler by default) otherwise holds the body back on a
reused connection until the client's delayed ACK, about 40 ms.

Callers refuse a URL that is_http_url rejects before sending anything,
treat ERRORS out of request as a failed exchange, which may be retried, and
REFUSED as a request that was never sent and never will be.
"""

from __future__ import annotations

import atexit
import base64
import email.utils
import functools
import http.client
import math
import os
import random
import re
import select
import socket
import ssl
import sys
import threading
import time
import urllib.request
from urllib.parse import unquote, urlsplit

# A URL holding a control character, a space or a non-ASCII character, or a
# header field whose value holds a CR or LF, such as an API key ending in a
# newline; no message quotes a header value. Callers test for it before
# ERRORS, which holds InvalidURL's base class HTTPException.
REFUSED = (ValueError, http.client.InvalidURL)
# OSError covers refused connections, resets, timeouts and TLS failures;
# HTTPException a malformed reply.
ERRORS = (OSError, http.client.HTTPException)

_PORTS = {"http": 80, "https": 443}
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]
_URL_REFUSED = re.compile(r"[^!-~]")
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_READ = 16384  # bytes per recv; 64 KiB reads raised a batch's peak RSS
_MAX_LINE = 65536  # bytes of a reply's head, or of a chunk's size line
_HEAD_END = re.compile(rb"\n\r?\n")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


def is_http_url(url: str) -> bool:
    """Whether `url` is http or https, the only schemes request speaks."""
    return urlsplit(url).scheme in _PORTS


class _IdleConnections:
    """Kept-alive sockets not in use: a LIFO stack per key of (scheme,
    host:port, proxy URL or None)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[tuple, list[socket.socket]] = {}

    def take(self, key: tuple) -> socket.socket | None:
        """The newest idle socket for `key` that the server has not closed,
        or None; the closed ones on top of it are dropped."""
        while True:
            with self._lock:
                stack = self._stacks.get(key)
                if not stack:
                    return None
                sock = stack.pop()
            if not _dropped(sock):
                return sock
            sock.close()

    def put(self, key: tuple, sock: socket.socket) -> None:
        with self._lock:
            self._stacks.setdefault(key, []).append(sock)

    def close(self) -> None:
        with self._lock:
            stacks, self._stacks = self._stacks, {}
        for stack in stacks.values():
            for sock in stack:
                sock.close()


def _dropped(sock) -> bool:
    """Whether an idle socket is readable at once: the server closed it, or
    sent what no request asked for (urllib3's is_connection_dropped). poll
    watches any descriptor, select only those below 1024."""
    try:
        if _POLL:
            poller = select.poll()
            poller.register(sock, select.POLLIN)
            return bool(poller.poll(0))
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or a descriptor select cannot watch
        return True


_POLL = hasattr(select, "poll")  # not on Windows
_idle = _IdleConnections()
atexit.register(_idle.close)
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only, see tcp(7)


class _Headers(dict):
    """A reply's header fields by lower-cased name, which get looks up in any
    case; a field sent more than once holds its values joined by ", "."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


def request(
    url: str, data: bytes | None = None, headers: dict[str, str] | None = None, *, timeout: float
) -> tuple[int, _Headers, bytes]:
    """GET `url`, or POST `data` to it; the status, the reply headers and
    the whole reply body."""
    bad = _URL_REFUSED.search(url)
    if bad is not None:
        raise http.client.InvalidURL(
            f"URL can't contain control characters, spaces or non-ASCII (found {bad[0]!r})"
        )
    parts = urlsplit(url)
    scheme, host = parts.scheme, parts.netloc.rpartition("@")[2]
    if scheme not in _PORTS:
        raise http.client.InvalidURL(f"not an http or https URL: {scheme!r}")
    if not parts.hostname:
        raise OSError("no host given")
    proxy = _proxy_for(scheme, host)
    fields = {"Host": host, "Accept-Encoding": "identity"}
    if data is not None:
        fields["Content-Length"] = str(len(data))
    fields["User-Agent"] = _USER_AGENT
    if proxy is not None and scheme == "http":
        target = url.partition("#")[0]
        auth = _proxy_route(proxy)[3]
        if auth:
            fields["Proxy-Authorization"] = auth
    else:
        target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
    for name, value in (headers or {}).items():
        if not _TOKEN.fullmatch(name) or "\r" in value or "\n" in value:
            raise ValueError(f"header field {name!r} is not a token or its value holds CR or LF")
        fields[name.title()] = value
    lines = [f"{name}: {value}\r\n" for name, value in fields.items()]
    message = f"{'GET' if data is None else 'POST'} {target} HTTP/1.1\r\n{''.join(lines)}\r\n"
    message = message.encode("latin-1") + (data or b"")
    key = (scheme, host, proxy)
    sock = _idle.take(key)
    if sock is not None:
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)
        try:
            return _exchange(key, sock, message)
        except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
            pass  # the server closed it while it was idle
    sock = _connect(scheme, parts.hostname, parts.port or _PORTS[scheme], proxy, timeout)
    return _exchange(key, sock, message)


def _exchange(key: tuple, sock: socket.socket, message: bytes) -> tuple[int, _Headers, bytes]:
    """Send `message` on `sock` in one send and read the whole reply; `sock`
    goes back on the idle stack if the reply leaves it open, and is closed
    otherwise."""
    try:
        sock.sendall(message)
        if _QUICKACK is not None:  # the kernel clears it, so per request
            sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        status, headers, body, reusable = _read_reply(_Reader(sock))
    except BaseException:
        sock.close()
        raise
    if reusable:
        _idle.put(key, sock)
    else:
        sock.close()
    return status, headers, body


class _Reader:
    """What has come in on one socket: buf[pos:] is read but not used."""

    __slots__ = ("sock", "buf", "pos")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""
        self.pos = 0

    def _fill(self) -> bool:
        data = self.sock.recv(_READ)
        self.buf = self.buf[self.pos :] + data
        self.pos = 0
        return bool(data)

    def head(self) -> str:
        """The status line and header fields, up to the empty line."""
        while (end := _HEAD_END.search(self.buf, self.pos)) is None:
            if len(self.buf) - self.pos > _MAX_LINE:
                raise http.client.LineTooLong("reply head")
            if not self._fill():
                if self.buf:
                    raise http.client.IncompleteRead(self.buf)
                raise http.client.RemoteDisconnected("closed without a reply")
        head = self.buf[self.pos : end.start()]
        self.pos = end.end()
        return head.decode("latin-1")

    def line(self) -> bytes:
        """The next line, without its line end."""
        while (end := self.buf.find(b"\n", self.pos)) < 0:
            if len(self.buf) - self.pos > _MAX_LINE:
                raise http.client.LineTooLong("chunk size or trailer line")
            if not self._fill():
                raise http.client.IncompleteRead(self.buf)
        line = self.buf[self.pos : end]
        self.pos = end + 1
        return line.rstrip(b"\r")

    def exact(self, n: int) -> bytes:
        """The next `n` bytes."""
        end = self.pos + n
        if len(self.buf) >= end:
            self.pos = end
            return self.buf[end - n : end]
        parts = [self.buf[self.pos :]]
        left = n - len(parts[0])
        self.buf, self.pos = b"", 0
        while left:
            data = self.sock.recv(min(left, _READ))
            if not data:
                raise http.client.IncompleteRead(b"".join(parts), left)
            parts.append(data)
            left -= len(data)
        return b"".join(parts)

    def rest(self) -> bytes:
        """Everything up to the close."""
        parts = [self.buf[self.pos :]]
        self.buf, self.pos = b"", 0
        while data := self.sock.recv(_READ):
            parts.append(data)
        return b"".join(parts)


def _read_reply(reader: _Reader) -> tuple[int, _Headers, bytes, bool]:
    """The status, header fields and body of the next reply, and whether its
    socket may carry another request (RFC 9112 sections 6.3 and 9.3)."""
    version, status, headers = _parse_head(reader.head())
    while status < 200:  # an interim reply, such as 100 Continue
        version, status, headers = _parse_head(reader.head())
    connection = headers.get("connection", "").lower()
    reusable = version == "HTTP/1.1" and "close" not in map(str.strip, connection.split(","))
    coding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    if status in (204, 304):
        body = b""
    elif coding is not None:
        if coding.lower().rpartition(",")[2].strip() == "chunked":
            body = _read_chunked(reader)
        else:
            body, reusable = reader.rest(), False
    elif length is not None:
        if not (length.isascii() and length.isdigit()):
            raise http.client.HTTPException(f"malformed Content-Length {length[:40]!r}")
        body = reader.exact(int(length))
    else:
        body, reusable = reader.rest(), False
    return status, headers, body, reusable and reader.pos == len(reader.buf)


def _parse_head(head: str) -> tuple[str, int, _Headers]:
    """The version, status and header fields of a reply head."""
    lines = head.split("\n")
    status_line = lines[0].rstrip("\r")
    version, _, rest = status_line.partition(" ")
    code = rest[:3]
    if not (
        version.startswith("HTTP/") and code.isascii() and code.isdigit() and rest[3:4] in ("", " ")
    ):
        raise http.client.BadStatusLine(status_line[:80])
    fields: dict[str, str] = {}
    name = None
    for line in lines[1:]:
        if line[:1] in (" ", "\t"):  # a folded line continues the field before
            if name is not None:
                fields[name] += " " + line.strip()
            continue
        name, colon, value = line.partition(":")
        if not colon:
            name = None
            continue
        name, value = name.strip().lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    return version, int(code), _Headers(fields)


def _read_chunked(reader: _Reader) -> bytes:
    """A chunked body (RFC 9112 section 7.1); chunk extensions and trailer
    fields are read and dropped."""
    parts = []
    while True:
        line = reader.line()
        size = line.partition(b";")[0].strip()
        if not _HEX.fullmatch(size):
            raise http.client.HTTPException(f"malformed chunk size {line[:40]!r}")
        n = int(size, 16)
        if not n:
            break
        parts.append(reader.exact(n))
        if reader.line():
            raise http.client.HTTPException("chunk longer than its size")
    while reader.line():  # trailer fields, up to the empty line
        pass
    return b"".join(parts)


_proxies: dict[str, str] | None = None


def _proxy_for(scheme: str, host: str) -> str | None:
    """The proxy URL for a request to `host`, or None. The proxy variables
    are read at the first request only, since getproxies scans the whole
    environment, at more than an exchange costs; NO_PROXY is read per
    request, as urllib does, but only while a proxy is set."""
    global _proxies
    if _proxies is None:
        _proxies = urllib.request.getproxies()
    proxy = _proxies.get(scheme)
    if proxy is None or urllib.request.proxy_bypass(host):
        return None
    return proxy


@functools.lru_cache(maxsize=8)
def _proxy_route(proxy: str) -> tuple[str, int, bool, str | None]:
    """The host and port of a proxy URL, or of a bare host:port, whether it
    is spoken to over TLS (an https:// URL, port 443 unless given), and the
    Proxy-Authorization value for its user and password."""
    parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if parts.scheme not in _PORTS:
        raise OSError(f"unsupported proxy scheme {parts.scheme!r}")
    if not parts.hostname:
        raise OSError("the proxy URL has no host")
    auth = None
    if parts.username and parts.password:
        creds = f"{unquote(parts.username)}:{unquote(parts.password)}".encode()
        auth = "Basic " + base64.b64encode(creds).decode("ascii")
    port = parts.port or _PORTS[parts.scheme]
    return parts.hostname, port, parts.scheme == "https", auth


def _connect(scheme: str, host: str, port: int, proxy: str | None, timeout: float):
    """A new socket to host:port for `scheme`, through `proxy` when set; an
    https request tunnels through its proxy. TLS to an https:// proxy is set
    up before anything is sent to it, so its credentials never go in clear."""
    if proxy is None:
        address, proxy_tls = (host, port), False
    else:
        proxy_host, proxy_port, proxy_tls, auth = _proxy_route(proxy)
        address = (proxy_host, proxy_port)
    context = _tls_context() if scheme == "https" or proxy_tls else None
    sock = socket.create_connection(address, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if proxy_tls:
            sock = context.wrap_socket(sock, server_hostname=proxy_host)
        if proxy is not None and scheme == "https":
            _tunnel(sock, host, port, auth)
        if scheme == "https":
            if proxy_tls:  # an SSLSocket cannot wrap another
                return _InnerTls(sock, context, host)
            sock = context.wrap_socket(sock, server_hostname=host)
    except BaseException:
        sock.close()
        raise
    return sock


class _InnerTls:
    """TLS to the server through a CONNECT tunnel inside TLS to the proxy.
    The inner TLS runs on memory buffers over the outer SSLSocket; this
    offers what _exchange, _Reader and _dropped use of a socket."""

    def __init__(self, outer: ssl.SSLSocket, context: ssl.SSLContext, host: str) -> None:
        self._outer = outer
        self._in, self._out = ssl.MemoryBIO(), ssl.MemoryBIO()
        self._tls = context.wrap_bio(self._in, self._out, server_hostname=host)
        self._run(self._tls.do_handshake)

    def _run(self, step, *args):
        """`step` of the inner TLS, fed from and flushed to the outer socket."""
        while True:
            try:
                result = step(*args)
            except ssl.SSLWantReadError:
                self._flush()
                data = self._outer.recv(_READ)
                if data:
                    self._in.write(data)
                else:
                    self._in.write_eof()
                continue
            self._flush()
            return result

    def _flush(self) -> None:
        if self._out.pending:
            self._outer.sendall(self._out.read())

    def sendall(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self._run(self._tls.write, view) :]

    def recv(self, n: int) -> bytes:
        try:
            return self._run(self._tls.read, n)
        except (ssl.SSLZeroReturnError, ssl.SSLEOFError):  # closed, as SSLSocket reads it
            return b""

    def fileno(self) -> int:
        return self._outer.fileno()

    def gettimeout(self) -> float | None:
        return self._outer.gettimeout()

    def settimeout(self, timeout: float | None) -> None:
        self._outer.settimeout(timeout)

    def setsockopt(self, *args) -> None:
        self._outer.setsockopt(*args)

    def close(self) -> None:
        self._outer.close()


def _tunnel(sock: socket.socket, host: str, port: int, auth: str | None) -> None:
    """Ask the proxy at the other end of `sock` for a tunnel to host:port
    (RFC 9110 section 9.3.6); a refusal is an OSError."""
    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    fields = f"Host: {authority}\r\n"
    if auth:
        fields += f"Proxy-Authorization: {auth}\r\n"
    sock.sendall(f"CONNECT {authority} HTTP/1.1\r\n{fields}\r\n".encode("ascii"))
    reader = _Reader(sock)
    _version, status, _headers = _parse_head(reader.head())
    if not 200 <= status < 300:
        raise OSError(f"Tunnel connection failed: HTTP {status}")
    if reader.pos < len(reader.buf):
        raise http.client.HTTPException("the proxy sent bytes after its CONNECT reply")


_tls: ssl.SSLContext | None = None
_tls_lock = threading.Lock()


def _tls_context() -> ssl.SSLContext:
    """The one TLS context, built at the first https request."""
    global _tls
    with _tls_lock:
        if _tls is None:
            bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            if not bundle:
                import certifi

                bundle = certifi.where()
            if os.path.isdir(bundle):
                _tls = ssl.create_default_context(capath=bundle)
            else:
                _tls = ssl.create_default_context(cafile=bundle)
        return _tls


# Before retry n a client sleeps a random time between 0 and the n-th bound
# here ("full jitter"), so requests that failed together do not retry
# together. A wait the server names replaces the draw; see pause.
_BACKOFF = (0.5, 1.0, 2.0)


def retry_after(value: str | None) -> float | None:
    """Seconds a Retry-After header asks for, given as delta-seconds or as an
    HTTP date; never negative, and None when absent or unreadable."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        try:
            seconds = email.utils.parsedate_to_datetime(value).timestamp() - time.time()
        except (TypeError, ValueError):
            return None
    return max(seconds, 0.0) if math.isfinite(seconds) else None


def pause(attempt: int, asked: float | None = None) -> None:
    """Sleep before retry `attempt` (1 for the first), as both the chat and
    the explorer client do: the `asked` seconds when the server named a
    wait, else a full-jitter draw; at most 5 s either way."""
    if asked is None:
        asked = random.uniform(0, _BACKOFF[min(attempt, len(_BACKOFF)) - 1])
    time.sleep(min(asked, 5.0))
