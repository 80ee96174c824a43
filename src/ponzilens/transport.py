"""HTTP for the package: explorer downloads and chat completions.

Every request goes through one urllib opener, built at the first request,
and on a new connection: urllib sends `Connection: close`. The opener holds
only a proxy handler and the http and https handlers:

  * proxies come from HTTP_PROXY/HTTPS_PROXY, read when the opener is
    built, and from NO_PROXY, read per request;
  * https is verified against certifi's CA bundle, or REQUESTS_CA_BUNDLE/
    CURL_CA_BUNDLE when set, loaded at the first https request, so a
    process that only talks to http endpoints never loads it;
  * no redirect is followed and no status raises, so every reply comes back
    to the caller as its status, headers and body.

Callers refuse a URL that is_http_url rejects before sending anything,
treat ERRORS out of request as a failed exchange, which may be retried, and
REFUSED as a request that was never sent and never will be.
"""

from __future__ import annotations

import email.utils
import http.client
import math
import os
import random
import ssl
import threading
import time
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


class _HTTPSHandler(urllib.request.HTTPSHandler):
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
            opener.add_handler(urllib.request.HTTPHandler())
            opener.add_handler(_HTTPSHandler())
            _opener = opener
        return _opener


def request(
    url: str, data: bytes | None = None, headers: dict[str, str] | None = None, *, timeout: float
) -> tuple[int, http.client.HTTPMessage, bytes]:
    """GET `url`, or POST `data` to it; the status, the reply headers and
    the whole reply body."""
    req = urllib.request.Request(url, data=data, headers=headers or {})
    with _get_opener().open(req, timeout=timeout) as resp:
        return resp.status, resp.headers, resp.read()


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
