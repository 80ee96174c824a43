"""HTTP for the package: explorer downloads and chat completions.

Every request goes through one urllib opener, built at the first request.
The opener holds only a proxy handler and the http and https handlers:

  * proxies come from HTTP_PROXY/HTTPS_PROXY, read when the opener is
    built, and from NO_PROXY, read per request;
  * https is verified against certifi's CA bundle, or REQUESTS_CA_BUNDLE/
    CURL_CA_BUNDLE when set, loaded at the first https request, so a
    process that only talks to http endpoints never loads it;
  * no redirect is followed and no status raises, so every reply comes back
    to the caller as its status, headers and body.

Connections are kept alive (HTTP/1.1, RFC 9112 section 9.3). Both handlers
take a connection from one process-wide LIFO stack of idle ones, per
connection class, host and tunnel host, and put it back once its reply has
been read in full, unless the reply closes it or anything raised; idle
connections are closed at exit. One in use belongs to one request, so
concurrent requests never share one. A connection the server closed while
idle is dropped before reuse, and a request that still finds its reused
connection closed or reset is sent once more, at once, on a new one; the
caller sees one exchange. http.client sets TCP_NODELAY on each new socket,
and the client asks for TCP_QUICKACK after each request where the platform
has it: a server that writes a reply's headers and body in two sends with
Nagle's algorithm on (any http.server handler by default) otherwise holds
the body back on a reused connection until the client's delayed ACK, about
40 ms.

Callers refuse a URL that is_http_url rejects before sending anything,
treat ERRORS out of request as a failed exchange, which may be retried, and
REFUSED as a request that was never sent and never will be.
"""

from __future__ import annotations

import atexit
import email.utils
import http.client
import math
import os
import random
import select
import socket
import ssl
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

# A URL or header http.client refuses before sending, such as an API key
# ending in a newline; its message can quote the header. Callers test for it
# before ERRORS, which holds InvalidURL's base class HTTPException.
REFUSED = (ValueError, http.client.InvalidURL)
# OSError covers URLError, refused connections and timeouts.
ERRORS = (OSError, http.client.HTTPException)


def is_http_url(url: str) -> bool:
    """Whether `url` is http or https; urllib would open file:, ftp: and
    data: URLs too."""
    return urlsplit(url).scheme in ("http", "https")


class _IdleConnections:
    """Kept-alive connections not in use: a LIFO stack per key of
    (connection class, host, tunnel host)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[tuple, list[http.client.HTTPConnection]] = {}

    def take(self, key: tuple) -> http.client.HTTPConnection | None:
        """The newest idle connection for `key` that the server has not
        closed, or None; the closed ones on top of it are dropped."""
        while True:
            with self._lock:
                stack = self._stacks.get(key)
                if not stack:
                    return None
                conn = stack.pop()
            if not _dropped(conn.sock):
                return conn
            conn.close()

    def put(self, key: tuple, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            self._stacks.setdefault(key, []).append(conn)

    def close(self) -> None:
        with self._lock:
            stacks, self._stacks = self._stacks, {}
        for stack in stacks.values():
            for conn in stack:
                conn.close()


def _dropped(sock) -> bool:
    """Whether an idle connection is readable at once: the server closed it,
    or sent what no request asked for (urllib3's is_connection_dropped)."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or a descriptor select cannot watch
        return True


_idle = _IdleConnections()
atexit.register(_idle.close)
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only, see tcp(7)


class _KeepAliveHandler(urllib.request.AbstractHTTPHandler):
    """do_open for the http and https handlers, on kept-alive connections."""

    def do_open(self, http_class, req, **conn_args):
        if not req.host:
            raise urllib.error.URLError("no host given")
        headers = dict(req.unredirected_hdrs)
        headers.update({k: v for k, v in req.headers.items() if k not in headers})
        headers = {name.title(): value for name, value in headers.items()}
        tunnel_headers = {}
        if req._tunnel_host and "Proxy-Authorization" in headers:
            # For the proxy only, not the origin.
            tunnel_headers["Proxy-Authorization"] = headers.pop("Proxy-Authorization")
        key = (http_class, req.host, req._tunnel_host)
        conn = _idle.take(key)
        if conn is not None:
            conn.timeout = req.timeout
            conn.sock.settimeout(req.timeout)
            try:
                return _exchange(key, conn, req, headers)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
                pass  # the server closed it while it was idle
        conn = http_class(req.host, timeout=req.timeout, **conn_args)
        if req._tunnel_host:
            conn.set_tunnel(req._tunnel_host, headers=tunnel_headers)
        return _exchange(key, conn, req, headers)


def _exchange(
    key: tuple, conn: http.client.HTTPConnection, req: urllib.request.Request, headers: dict
) -> tuple[int, http.client.HTTPMessage, bytes]:
    """Send `req` on `conn` and read the whole reply; `conn` goes back on the
    idle stack if the reply leaves it open, and is closed otherwise."""
    resp = None
    try:
        conn.request(
            req.get_method(),
            req.selector,
            req.data,
            headers,
            encode_chunked=req.has_header("Transfer-encoding"),
        )
        if _QUICKACK is not None:  # the kernel clears it, so per request
            conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        resp = conn.getresponse()
        reply = resp.status, resp.headers, resp.read()
    except BaseException:
        if resp is not None:
            resp.close()
        conn.close()
        raise
    if resp.will_close:
        conn.close()
    else:
        _idle.put(key, conn)
    return reply


class _HTTPHandler(_KeepAliveHandler, urllib.request.HTTPHandler):
    pass


class _HTTPSHandler(_KeepAliveHandler, urllib.request.HTTPSHandler):
    """Verifies TLS against the CA bundle, loaded at the first https
    request."""

    def __init__(self) -> None:
        # Not HTTPSHandler.__init__: from Python 3.12 on it loads a default
        # context at once.
        urllib.request.AbstractHTTPHandler.__init__(self)
        self._context: ssl.SSLContext | None = None
        self._lock = threading.Lock()

    def https_open(self, req: urllib.request.Request):
        with self._lock:
            if self._context is None:
                self._context = _tls_context()
        return self.do_open(http.client.HTTPSConnection, req, context=self._context)


def _tls_context() -> ssl.SSLContext:
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if not bundle:
        import certifi

        bundle = certifi.where()
    if os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle)


_opener: urllib.request.OpenerDirector | None = None
_opener_lock = threading.Lock()


def _get_opener() -> urllib.request.OpenerDirector:
    global _opener
    with _opener_lock:
        if _opener is None:
            opener = urllib.request.OpenerDirector()
            opener.add_handler(urllib.request.ProxyHandler())
            opener.add_handler(_HTTPHandler())
            opener.add_handler(_HTTPSHandler())
            _opener = opener
        return _opener


def request(
    url: str, data: bytes | None = None, headers: dict[str, str] | None = None, *, timeout: float
) -> tuple[int, http.client.HTTPMessage, bytes]:
    """GET `url`, or POST `data` to it; the status, the reply headers and
    the whole reply body."""
    req = urllib.request.Request(url, data=data, headers=headers or {})
    return _get_opener().open(req, timeout=timeout)


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
