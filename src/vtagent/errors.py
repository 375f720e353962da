"""Exception types shared across the harness."""

from __future__ import annotations


class VtagentError(Exception):
    """Base class for all harness errors."""


class ConfigError(VtagentError):
    """Invalid or unresolvable configuration; fails fast at startup."""


# --- manifest / data model ---

class MalformedRecord(VtagentError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateSampleId(VtagentError):
    def __init__(self, sample_id: str):
        super().__init__(f"duplicate sample_id {sample_id!r}")
        self.sample_id = sample_id


class MissingFrameFile(VtagentError):
    def __init__(self, path: str):
        super().__init__(f"frame file not found: {path}")
        self.path = path


# --- trajectory grammar ---

class MissingActionBlock(VtagentError):
    def __init__(self, raw: str):
        super().__init__("no <action> block found")
        self.raw = raw


class UnparsableAction(VtagentError):
    def __init__(self, payload: str, raw: str = ""):
        super().__init__(f"unparsable action payload: {payload!r}")
        self.payload = payload
        self.raw = raw


class EmptySelection(VtagentError):
    """No keyframe id survived validation; caller applies its fallback."""


# --- backends ---

class BackendUnavailable(VtagentError):
    def __init__(self, cause: str, retry_after: float | None = None):
        super().__init__(cause)
        self.cause = cause
        self.retry_after = retry_after


class BackendTimeout(VtagentError):
    pass


class ResponseEmpty(VtagentError):
    pass


# failures a retry may cure: every catch site of a transient backend error uses this
TRANSIENT_ERRORS = (BackendUnavailable, BackendTimeout, ResponseEmpty)


class StoreWriteFailed(VtagentError):
    pass


# --- metrics / analysis ---

class EmptyScoreSet(VtagentError):
    pass


class NotFrameSolvable(VtagentError):
    pass


class NonFinite(VtagentError):
    pass
