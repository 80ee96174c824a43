"""ponzilens.transport's reply reader against a reply grammar, with
http.client as the reference and the bytes handed out at random split
points.

A reply is a status line, header fields and a body framed by its length,
by chunks (with extensions and trailers) or by the close, after 0-2 interim
1xx replies. Three properties hold:

  * a well-formed reply reads to the same status, fields and body at every
    split, and as http.client.HTTPResponse reads it;
  * any byte string reads to a reply or an exception in ERRORS, never one
    in REFUSED, and the read ends;
  * whether the socket may carry another request does not depend on the
    split points: that is _read_reply's verdict together with the bytes
    left unread, which a later _dropped would see.
"""

from __future__ import annotations

import http.client
import io
import re
import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ponzilens import transport  # noqa: E402


class _Socket:
    """Hands out `data` in the pieces that the offsets `cuts` make, at most
    `n` bytes per recv, and then the close."""

    def __init__(self, data: bytes, cuts: list[int]) -> None:
        ends = sorted({cut % (len(data) + 1) for cut in cuts} | {len(data)})
        starts = [0, *ends[:-1]]
        self.pieces = [data[a:b] for a, b in zip(starts, ends) if b > a][::-1]
        self.closed = False

    def recv(self, n: int) -> bytes:
        assert not self.closed, "recv after the close: the read would never end"
        if not self.pieces:
            self.closed = True
            return b""
        piece = self.pieces.pop()
        if len(piece) > n:
            self.pieces.append(piece[n:])
        return piece[:n]


def _read(data: bytes, cuts: list[int]):
    """The status, fields, body and whether the socket may be reused, or the
    class of the error, reading `data` split at `cuts`."""
    sock = _Socket(data, cuts)
    try:
        status, headers, body, reusable = transport._read_reply(transport._Reader(sock))
    except transport.ERRORS as exc:
        assert not isinstance(exc, transport.REFUSED), exc
        return type(exc)
    return status, dict(headers), body, reusable and not sock.pieces


class _File:
    """A socket as http.client reads it: one file of `data`."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode: str) -> io.BytesIO:
        return io.BytesIO(self.data)


def _reference(final: bytes):
    """The status, fields and body as http.client reads them. A folded
    value is unfolded and the whitespace around a value dropped, neither of
    which is part of it (RFC 9112 sections 5.1 and 5.2)."""
    response = http.client.HTTPResponse(_File(final))
    response.begin()
    fields = {}
    for name in dict.fromkeys(name.lower() for name in response.msg.keys()):
        values = response.msg.get_all(name)
        fields[name] = ", ".join(re.sub(r"\s*\n\s*", " ", v).strip(" \t") for v in values)
    return response.status, fields, response.read()


# Field names with a prefix, so none is one that frames the body; values of
# visible characters with spaces inside, as RFC 9110 section 5.5 has them.
_NAMES = st.text(string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~", max_size=8)
_WORDS = st.text(string.punctuation + string.ascii_letters, min_size=1, max_size=6)
_FIELDS = st.lists(
    st.tuples(
        _NAMES,
        st.sampled_from(["", " ", " \t"]),  # before the value
        st.lists(_WORDS, max_size=3),  # the value, words joined by spaces
        st.sampled_from(["", "", " ", "\t "]),  # a folded line's start, or none
    ),
    max_size=4,
)


def _lines(fields: list, eol: str) -> str:
    """Field lines, a value now and then folded onto a second line."""
    lines = []
    for name, space, words, fold in fields:
        lines.append(f"X-{name}:{space}{' '.join(words)}{eol}")
        if fold and words:
            lines.append(f"{fold}{words[0]}{eol}")
    return "".join(lines)


_INTERIM = st.lists(
    st.tuples(st.sampled_from([100, 102, 103]), st.sampled_from(["", " Continue"]), _FIELDS),
    max_size=2,
)
_BODIES = st.binary(max_size=64) | st.integers(16000, 40000).map(lambda n: (b"0123456789" * n)[:n])
_CHUNKS = st.lists(
    st.tuples(
        st.sampled_from(["%x", "%X", "%04x"]), st.sampled_from(["", ";name=value", ' ; q="a;b"'])
    ),
    min_size=5,
    max_size=5,
)


@st.composite
def _exchanges(draw) -> tuple[bytes, bytes]:
    """The interim replies and the final reply of one exchange, as bytes."""
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    interim = "".join(
        f"HTTP/1.1 {code}{reason}{eol}{_lines(fields, eol)}{eol}"
        for code, reason, fields in draw(_INTERIM)
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    status = draw(st.sampled_from([200, 201, 204, 299, 304, 404, 500]))
    reason = draw(st.sampled_from(["", " ", " OK", " Some Reason"]))
    head = f"{version} {status}{reason}{eol}{_lines(draw(_FIELDS), eol)}"
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive, Close"]))
    if connection:
        head += f"Connection: {connection}{eol}"
    body = b"" if status in (204, 304) else draw(_BODIES)
    framing = draw(st.sampled_from(["length", "chunked", "close", "gzip"]))
    if status in (204, 304):
        tail = b""
    elif framing == "length":
        head += f"Content-Length: {len(body)}{eol}"
        tail = body
    elif framing == "chunked":
        # http.client wants CRLF after each chunk's data.
        head += f"Transfer-Encoding: chunked{eol}"
        cuts = sorted(draw(st.sets(st.integers(1, max(len(body) - 1, 1)), max_size=3)))
        chunks = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
        tail = b""
        for chunk, (size, extension) in zip([*chunks, b""], draw(_CHUNKS)):
            tail += f"{size % len(chunk)}{extension}\r\n".encode() + chunk
            tail += b"\r\n" if chunk else b""
        tail += (_lines(draw(_FIELDS), "\r\n") + "\r\n").encode()
    elif framing == "gzip":  # a coding other than chunked: the body ends at the close
        head += f"Transfer-Encoding: gzip{eol}"
        tail = body
    else:
        tail = body
    return interim.encode(), (head + eol).encode() + tail


_CUTS = st.lists(st.integers(0, 2**16), max_size=40)


@settings(max_examples=200, deadline=None)
@given(_exchanges(), _CUTS)
@example((b"", b"HTTP/1.1 200 OK\r\nX-A: a\r\n  b\r\nContent-Length: 2\r\n\r\nhi"), [5, 20])
@example((b"HTTP/1.1 103 Early Hints\r\nLink: </s>\r\n\r\n", b"HTTP/1.1 200 OK\r\n\r\nhi"), [])
@example((b"", b"HTTP/1.1 204 No Content\r\n\r\n"), [1])
@example((b"", b"HTTP/1.1 304 Not Modified\r\nETag: x\r\n\r\n"), [])
@example((b"", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nzipped"), [30])
def test_a_well_formed_reply_reads_as_http_client_reads_it(exchange, cuts):
    interim, final = exchange
    got = _read(interim + final, cuts)
    assert got == _read(interim + final, [])
    assert got[:3] == _reference(final)


_PIECES = st.sampled_from(
    [b"HTTP/1.1 ", b"HTTP/1.0 ", b"200", b"100 ", b"101", b"204", b" OK", b"\r\n", b"\n", b":",
     b" ", b"\t", b"Content-Length: ", b"Content-Length: 3", b"Transfer-Encoding: chunked",
     b"Connection: close", b"0", b"5", b"a", b";x=y", b"hello", b"\xff"]
)  # fmt: skip


def _garble(exchange: tuple[bytes, bytes], noise: bytes, at: int, how: int) -> bytes:
    """A reply cut short, or with `noise` put in, over or after it."""
    data = b"".join(exchange)
    at %= len(data) + 1
    return [
        data[:at],
        data[:at] + noise + data[at:],
        data[:at] + noise + data[at + len(noise) :],
        data + noise,
    ][how]


_ANY = st.one_of(
    st.binary(max_size=200),
    st.lists(_PIECES, max_size=40).map(b"".join),
    st.builds(_garble, _exchanges(), st.binary(min_size=1, max_size=8), st.integers(0, 2**16),
              st.integers(0, 3)),
)  # fmt: skip


@settings(max_examples=200, deadline=None)
@given(_ANY, _CUTS, _CUTS)
@example(b"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 2\r\n\r\nhi", [7], [])
@example(b"HTTP/1.1 200 OK\r\nX: " + b"v" * transport._MAX_LINE + b"\r\n\r\n", [], [9])
@example(b"HTTP/1.1 200 OK\r\n" + b"X: v\r\n" * 20000 + b"\r\n", [], [])
# A chunk size line past the limit is refused, whether or not its end came
# in with the bytes that pass the limit.
@example(
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;"
    + b"x" * 70000
    + b"\r\na\r\n0\r\n\r\n",
    [],
    [65584],
)
@example(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", [], [])
@example(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 200 OK\r\n\r\n", [38], [])
@example(b"HTTP/1.1 101 Switching Protocols\r\n\r\nHTTP/1.1 200 OK\r\n\r\n", [], [])
def test_any_bytes_read_to_a_reply_or_a_transport_error_whatever_the_split(data, cuts, other):
    assert _read(data, cuts) == _read(data, other)


@pytest.mark.parametrize(
    "data",
    [
        b"HTTP/1.1 200 OK\r\nX: " + b"v" * transport._MAX_LINE + b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X: v\r\n" * 20000 + b"\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n" + b"X: v\r\n" * 20000,
    ],
    ids=["line", "head", "trailers"],
)
def test_a_line_or_a_field_section_past_the_limit_is_refused(data):
    assert _read(data, []) is http.client.LineTooLong
