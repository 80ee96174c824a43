"""A loopback HTTP server for the transport, chat and explorer tests."""

from __future__ import annotations

import contextlib
import http.client
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ponzilens import transport


class _Server(ThreadingHTTPServer):
    request_queue_size = 64  # the chains of a contract connect at once


@contextlib.contextmanager
def serve(handler: type[BaseHTTPRequestHandler]):
    """A loopback server running `handler`; yields its base URL. The
    client's idle connections are closed when it stops, since a kept-alive
    one holds a handler thread waiting for its next request."""
    server = _Server(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        transport._idle.close()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()


def idle(url: str) -> list[http.client.HTTPConnection]:
    """The idle kept-alive connections the client holds to the server of the
    http `url`."""
    key = (http.client.HTTPConnection, urlsplit(url).netloc, None)
    return transport._idle._stacks.get(key, [])
