"""Exception types shared across the pipeline.

Every error raised by this package derives from PonzilensError so callers can
catch one base class at process boundaries (CLI, batch workers) while tests
and library users can still discriminate precise failure modes.
"""

from __future__ import annotations


class PonzilensError(Exception):
    """Base class for all errors raised by this package."""


# --- ingest ---------------------------------------------------------------


class CompilerNotFound(PonzilensError):
    """No installed compiler satisfies the pragma of the unit being compiled."""


class CompileError(PonzilensError):
    """The compiler ran but rejected the source.

    `diagnostics` holds the compiler's own error messages verbatim.
    """

    def __init__(self, message: str, diagnostics: list[str] | tuple[str, ...] = ()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class UnsupportedVersion(PonzilensError):
    """The unit's pragma falls outside the supported compiler range."""


class MalformedAst(PonzilensError):
    """An AST document is structurally unusable (wrong shape, missing root)."""


class JsonError(PonzilensError):
    """Input that should have been JSON did not parse."""


class NotVerified(PonzilensError):
    """The explorer has no verified source for the requested address."""


class RateLimited(PonzilensError):
    """The explorer refused the request for rate reasons after all retries."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class NetworkError(PonzilensError):
    """Transport-level failure (timeout, connection refused) after retries."""


class AuthError(PonzilensError):
    """Missing or rejected API credentials."""


# --- hypergraph -----------------------------------------------------------


class UnknownGraph(PonzilensError):
    """A graph id was requested that the hypernode graph does not contain."""


# --- detect ---------------------------------------------------------------


class EmptyInput(PonzilensError):
    """A prompt builder received nothing to put into the prompt."""


class BackendUnavailable(PonzilensError):
    """The completion backend could not be reached or kept failing."""


class ContextOverflow(PonzilensError):
    """The prompt does not fit in the configured model context window."""


class UnparseableVerdict(PonzilensError):
    """No true/false token could be recovered from a detection reply."""


# --- evaluation -----------------------------------------------------------


class LabelMismatch(PonzilensError):
    """Reports and manifest disagree about which contract ids exist."""
