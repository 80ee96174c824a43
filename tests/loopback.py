"""A loopback HTTP server for the transport, chat and explorer tests."""

from __future__ import annotations

import contextlib
import os
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ponzilens import transport


# A self-signed certificate for 127.0.0.1 and localhost, made for these
# tests alone with `openssl req -x509 -newkey ec -pkeyopt
# ec_paramgen_curve:prime256v1 -nodes -days 36500 -subj /CN=localhost
# -addext subjectAltName=IP:127.0.0.1,DNS:localhost`; it is its own CA.
CERT = os.path.join(os.path.dirname(__file__), "loopback_cert.pem")
KEY = os.path.join(os.path.dirname(__file__), "loopback_key.pem")


class _Server(ThreadingHTTPServer):
    request_queue_size = 64  # the chains of a contract connect at once


@contextlib.contextmanager
def serve(handler: type[BaseHTTPRequestHandler], *, tls: bool = False):
    """A loopback server running `handler`, over TLS with CERT when `tls`;
    yields its base URL. The client's idle connections are closed when it
    stops, since a kept-alive one holds a handler thread waiting for its
    next request."""
    server = _Server(("127.0.0.1", 0), handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(CERT, KEY)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}"
    finally:
        transport._idle.close()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()


def idle(url: str, proxy: str | None = None) -> list[socket.socket]:
    """The idle kept-alive sockets the client holds to the server of `url`,
    reached through the proxy URL `proxy`, or directly."""
    parts = urlsplit(url)
    return transport._idle._stacks.get((parts.scheme, parts.netloc, proxy), [])


def trust_cert(monkeypatch) -> None:
    """Make the client verify https against CERT alone, from the next
    request on."""
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", CERT)
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    monkeypatch.setattr(transport, "_tls", None)


def free_port() -> int:
    """A loopback port that nothing listens on, at least for now."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
