"""Source acquisition: local files, compiler AST documents, explorer APIs.

A SourceUnit is the single entry currency of the pipeline. It can be born
three ways: from a .sol file on disk, from a previously serialized AST
document, or from a block-explorer lookup by address. Whatever the origin,
downstream stages only ever see the unit. Explorer lookups go through the
package's one HTTP transport, ponzilens.transport, as chat requests do.

The AST document format is a JSON object shaped like compiler standard-JSON
output, reduced to what the pipeline needs:

    {
      "compiler": {"version": "0.8.19"},
      "sources": {
        "Name.sol": {"content": "<solidity source>", "ast": {<SourceUnit node>}}
      }
    }

Exactly one entry under "sources" is accepted; multi-file inputs must be
flattened to one unit before compilation (the fetch path does this for
explorer responses).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable
from urllib.parse import quote_plus, urlencode, urlsplit

from . import transport
from .errors import (
    AuthError,
    CompileError,
    CompilerNotFound,
    JsonError,
    MalformedAst,
    NetworkError,
    NotVerified,
    RateLimited,
    UnsupportedVersion,
)

ETHERSCAN_KEY_ENV = "PONZILENS_ETHERSCAN_KEY"

# Inclusive range of compiler versions the pipeline accepts.
SUPPORTED_MIN = (0, 4, 11)
SUPPORTED_MAX = (0, 8, 23)

_VERSION_RE = re.compile(r"(\d{1,4})\.(\d{1,4})(?:\.(\d{1,4}))?")  # bounded, so `int` never refuses
_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+);")
_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")


def is_address(text: str) -> bool:
    """True when `text` is a well-formed 20-byte hex address."""
    return bool(_ADDRESS_RE.match(text))


def version_tuple(version: str) -> tuple[int, int, int]:
    """First version literal in `version` as a (major, minor, patch) tuple.

    A missing patch component reads as 0, which makes open constraints like
    "^0.8" compare conservatively against the supported range.
    """
    m = _VERSION_RE.search(version)
    if not m:
        raise ValueError(f"no version literal in {version!r}")
    return (int(m.group(1)), int(m.group(2)), int(m.group(3) or 0))


def pragma_supported(pragma: str | None) -> bool:
    """Whether a pragma's first version literal falls in the supported range."""
    if pragma is None:
        return True
    try:
        v = version_tuple(pragma)
    except ValueError:
        return True
    return SUPPORTED_MIN <= v <= SUPPORTED_MAX


def parse_pragma(source_text: str) -> str | None:
    """The constraint text of the first `pragma solidity ...;` directive."""
    m = _PRAGMA_RE.search(source_text)
    return m.group(1).strip() if m else None


@dataclass
class SourceUnit:
    """One analyzable Solidity input.

    Invariant: at least one of source_text / ast_json is populated;
    source_text may be empty only when an AST is already attached.
    """

    id: str
    source_text: str = ""
    pragma_version: str | None = None
    ast_json: dict | None = None
    compiler_version: str | None = None

    def __post_init__(self) -> None:
        if not self.source_text and self.ast_json is None:
            raise ValueError("SourceUnit needs source text or an AST")
        if self.pragma_version is None and self.source_text:
            self.pragma_version = parse_pragma(self.source_text)


@dataclass
class FetchConfig:
    """Explorer API access settings.

    rate_limit is requests per second, spaced evenly 1 / rate_limit seconds
    apart (see `RateLimiter`) across every thread using the same
    (api_base_url, rate_limit) pair.
    """

    api_base_url: str = "https://api.etherscan.io/api"
    api_key: str = ""
    rate_limit: float = 5.0
    timeout: float = 10.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


# --- compiler selection -----------------------------------------------------


def resolve_version(constraint: str, available: Iterable[str]) -> str:
    """Pick a compiler version for a pragma constraint.

    Policy: an exact match on the constraint's first version literal wins;
    otherwise the highest available patch release with the same major.minor
    and patch >= the stated one. Deterministic by construction so repeated
    builds select the same binary.
    """
    versions = sorted(set(available), key=version_tuple)
    if not versions:
        raise CompilerNotFound("no compiler binaries available")
    target = version_tuple(constraint) if _VERSION_RE.search(constraint) else None
    if target is None:
        return versions[-1]
    for v in versions:
        if version_tuple(v) == target:
            return v
    compatible = [
        v
        for v in versions
        if version_tuple(v)[:2] == target[:2] and version_tuple(v)[2] >= target[2]
    ]
    if compatible:
        return compatible[-1]
    raise CompilerNotFound(
        f"no compiler satisfies {constraint!r}; available: {', '.join(versions)}"
    )


def discover_solc() -> dict[str, str]:
    """Map of version string to binary path for compilers found on PATH.

    Looks for a plain `solc` plus any `solc-<version>` siblings, and honors a
    SOLC_BINARY environment override.
    """
    found: dict[str, str] = {}

    def probe(path: str) -> None:
        try:
            out = subprocess.run(
                [path, "--version"], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return
        m = _VERSION_RE.search(out.stdout)
        if m:
            found.setdefault(m.group(0), path)

    override = os.environ.get("SOLC_BINARY")
    if override and Path(override).exists():
        probe(override)
    plain = shutil.which("solc")
    if plain:
        probe(plain)
    for d in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = os.listdir(d)
        except OSError:
            continue
        for name in names:
            if name.startswith("solc-"):
                probe(os.path.join(d, name))
    return found


def compile_source(unit: SourceUnit) -> SourceUnit:
    """Compile `unit.source_text` and attach the AST document in place.

    Raises UnsupportedVersion before touching a compiler when the pragma is
    out of range, CompilerNotFound when no binary satisfies it, and
    CompileError when compilation fails: its message quotes the first
    error verbatim and counts the others, and its diagnostics keep them all.
    """
    if not unit.source_text.strip():
        raise CompileError("empty source text")
    if not pragma_supported(unit.pragma_version):
        raise UnsupportedVersion(
            f"pragma {unit.pragma_version!r} outside supported range "
            f"{'.'.join(map(str, SUPPORTED_MIN))}..{'.'.join(map(str, SUPPORTED_MAX))}"
        )
    binaries = discover_solc()
    version = resolve_version(unit.pragma_version or "", binaries)
    binary = binaries[version]

    name = f"{unit.id}.sol"
    request = {
        "language": "Solidity",
        "sources": {name: {"content": unit.source_text}},
        "settings": {"outputSelection": {"*": {"": ["ast"]}}},
    }
    try:
        proc = subprocess.run(
            [binary, "--standard-json"],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise CompileError(f"compiler invocation failed: {exc}") from exc
    try:
        output = json.loads(proc.stdout)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CompileError(f"compiler emitted invalid JSON: {proc.stderr[:500]}") from exc

    diagnostics = [
        e.get("formattedMessage") or e.get("message", "")
        for e in output.get("errors", [])
        if e.get("severity") == "error"
    ]
    if diagnostics:
        more = f" (and {len(diagnostics) - 1} more error(s))" if len(diagnostics) > 1 else ""
        raise CompileError(f"compilation failed: {diagnostics[0].rstrip()}{more}", diagnostics)

    src_entry = output.get("sources", {}).get(name, {})
    ast = src_entry.get("ast") or src_entry.get("AST")
    if not isinstance(ast, dict):
        raise CompileError("compiler produced no usable AST for the unit")
    unit.ast_json = {
        "compiler": {"version": version},
        "sources": {name: {"content": unit.source_text, "ast": ast}},
    }
    unit.compiler_version = version
    return unit


# --- AST documents ----------------------------------------------------------


def source_entry(doc: object) -> tuple[str, dict]:
    """The name and entry of an AST document's one source; MalformedAst
    unless the entry has string content and a SourceUnit root with nodes."""
    if not isinstance(doc, dict):
        raise MalformedAst("AST document must be a JSON object")
    sources = doc.get("sources")
    if not isinstance(sources, dict) or not sources:
        raise MalformedAst("AST document has no sources entry")
    if len(sources) > 1:
        raise MalformedAst("multi-file documents are not supported; flatten first")
    (name, entry), = sources.items()
    if not isinstance(entry, dict):
        raise MalformedAst(f"source entry {name!r} must be an object")
    ast = entry.get("ast")
    if not isinstance(ast, dict) or ast.get("nodeType") != "SourceUnit":
        raise MalformedAst(f"source entry {name!r} lacks a SourceUnit root")
    if not isinstance(ast.get("nodes"), list):
        raise MalformedAst("SourceUnit root has no nodes list")
    if not isinstance(entry.get("content", ""), str):
        raise MalformedAst("source content must be a string")
    return name, entry


def load_ast(document: str | bytes | dict) -> SourceUnit:
    """Rebuild a SourceUnit from a serialized AST document.

    Accepts the document as JSON text, as its encoded bytes (UTF-8, a byte
    order mark allowed, decoded by `json` itself), or as an already-parsed
    dict. Exactly one source entry is allowed; the entry must carry a
    SourceUnit-rooted AST. Unknown node kinds inside the AST are tolerated
    here and surface later as opaque statements during lowering.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise JsonError(f"AST document is not valid JSON: {exc}") from exc
        except RecursionError:
            raise JsonError("AST document is nested too deeply to parse") from None
    else:
        doc = document
    name, entry = source_entry(doc)
    stem = Path(name).name
    for suffix in (".sol", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    compiler = doc.get("compiler") or {}
    if not isinstance(compiler, dict):
        raise MalformedAst("AST document's compiler entry must be an object")
    return SourceUnit(
        id=stem or name,
        source_text=entry.get("content", ""),
        ast_json=doc,
        compiler_version=compiler.get("version"),
    )


def load_source_unit(path: str | Path) -> SourceUnit:
    """Load a unit from disk: .sol as raw source, .json as an AST document,
    whose bytes `load_ast` decodes."""
    p = Path(path)
    if p.suffix == ".json":
        return load_ast(p.read_bytes())
    return SourceUnit(id=p.stem, source_text=p.read_text())


# --- explorer fetch ---------------------------------------------------------


class RateLimiter:
    """Spaces acquisitions evenly, 1 / rate seconds apart, on the monotonic
    clock. Thread-safe: acquire() takes the next free turn and sleeps until
    it comes."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / rate
        self._next = float("-inf")
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            turn = max(now, self._next)
            self._next = turn + self._interval
        if turn > now:
            time.sleep(turn - now)


_limiters: dict[tuple[str, float], RateLimiter] = {}
_limiters_lock = threading.Lock()


def _limiter_for(cfg: FetchConfig) -> RateLimiter:
    key = (cfg.api_base_url, cfg.rate_limit)
    with _limiters_lock:
        limiter = _limiters.get(key)
        if limiter is None:
            limiter = _limiters[key] = RateLimiter(cfg.rate_limit)
        return limiter


def _flatten_explorer_source(raw: str) -> str:
    """Collapse a multi-file explorer payload into one source text.

    Explorer responses wrap standard-JSON inputs in an extra brace pair;
    single-file responses are plain source. Files are concatenated in
    declaration order with file-boundary comments so spans stay meaningful
    within each file's chunk.
    """
    text = raw.strip()
    payload = None
    if text.startswith("{{") and text.endswith("}}"):
        payload = text[1:-1]
    elif text.startswith("{"):
        payload = text
    if payload is not None:
        try:
            obj = json.loads(payload)
        except (json.JSONDecodeError, RecursionError):
            return raw
        sources = obj.get("sources", obj) if isinstance(obj, dict) else None
        if isinstance(sources, dict):
            parts = []
            for fname, entry in sources.items():
                content = entry.get("content", "") if isinstance(entry, dict) else ""
                parts.append(f"// ---- file: {fname} ----\n{content}")
            if parts:
                return "\n\n".join(parts)
    return raw


def fetch_verified_source(address: str, cfg: FetchConfig) -> SourceUnit:
    """Fetch verified source for `address` from an explorer API.

    The address, the key and the URL's http or https scheme are checked
    before any network traffic. The API key comes from the
    PONZILENS_ETHERSCAN_KEY environment variable when set, falling back to
    the config value. The request parameters follow any query string that
    api_base_url already has. Requests go through ponzilens.transport, so
    redirects are not followed: a 3xx is a NetworkError. Rate limiting is
    enforced client-side on top of honoring explorer rate-limit replies;
    429s, 5xx replies and transport failures are retried up to
    cfg.max_attempts times. Each retry waits by `transport.pause`, as a
    chat retry does: what a 429's Retry-After or a rate-limit reply asks
    for, else a full-jitter backoff. A request the transport refuses to
    send is a NetworkError at once. The key never appears in an error
    message.
    """
    if not is_address(address):
        raise ValueError(f"malformed address: {address!r}")
    api_key = os.environ.get(ETHERSCAN_KEY_ENV) or cfg.api_key
    if not api_key:
        raise AuthError(
            f"no API key: set {ETHERSCAN_KEY_ENV} or FetchConfig.api_key"
        )
    if not transport.is_http_url(cfg.api_base_url):
        raise NetworkError(f"explorer URL {cfg.api_base_url!r} is not an http or https URL")
    base = urlsplit(cfg.api_base_url)
    params = urlencode(
        {"module": "contract", "action": "getsourcecode", "address": address, "apikey": api_key}
    )
    url = base._replace(query=f"{base.query}&{params}" if base.query else params).geturl()
    limiter = _limiter_for(cfg)
    last_error: Exception | None = None
    asked: float | None = None
    for attempt in range(cfg.max_attempts):
        if attempt:
            transport.pause(attempt, asked)
        asked = None
        limiter.acquire()
        try:
            status, headers, reply = transport.request(url, timeout=cfg.timeout)
        except (*transport.REFUSED, *transport.ERRORS) as exc:
            # An error can quote the request path, and the path holds the key.
            reason = str(exc).replace(quote_plus(api_key), "<apikey>")
            if isinstance(exc, transport.REFUSED):  # sending it again fails the same way
                raise NetworkError(f"explorer request failed before sending: {reason}") from None
            last_error = NetworkError(f"explorer request failed: {reason}")
            continue
        if status == 429:
            asked = transport.retry_after(headers.get("Retry-After"))
            last_error = RateLimited("explorer returned HTTP 429", asked)
            continue
        if status >= 500:
            last_error = NetworkError(f"explorer returned HTTP {status}")
            continue
        if 300 <= status < 400:
            raise NetworkError(f"explorer returned HTTP {status}; redirects are not followed")
        try:
            body = json.loads(reply)
        except (ValueError, RecursionError) as exc:
            raise JsonError(f"explorer reply is not JSON: {exc}") from exc
        result = body.get("result") if isinstance(body, dict) else None
        if isinstance(result, str):
            low = result.lower()
            if "rate limit" in low:
                asked = 1.0
                last_error = RateLimited(result, asked)
                continue
            if "invalid api key" in low:
                raise AuthError(result)
            if "not verified" in low:
                raise NotVerified(result)
            raise NetworkError(f"unexpected explorer reply: {result[:200]}")
        if not isinstance(result, list) or not result:
            raise NetworkError("explorer reply has no result entries")
        record = result[0]
        if not isinstance(record, dict):
            raise NetworkError("explorer result entry is not an object")
        raw = record.get("SourceCode", "")
        if not raw:
            raise NotVerified(f"no verified source for {address}")
        if not isinstance(raw, str):
            raise NetworkError("explorer SourceCode is not a string")
        source_text = _flatten_explorer_source(raw)
        return SourceUnit(
            id=address,
            source_text=source_text,
            compiler_version=(record.get("CompilerVersion") or None),
        )
    if isinstance(last_error, (RateLimited, NetworkError)):
        raise last_error
    raise NetworkError(f"fetch failed after {cfg.max_attempts} attempts: {last_error}")
