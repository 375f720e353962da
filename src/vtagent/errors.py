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
    def __init__(self):
        super().__init__("no <action> block found")


class UnparsableAction(VtagentError):
    def __init__(self, payload: str):
        super().__init__(f"unparsable action payload: {payload!r}")


class EmptySelection(VtagentError):
    """No keyframe id survived validation; caller applies its fallback."""


# --- backends ---

class BackendUnavailable(VtagentError):
    """A backend call failed: the one class of every backend failure. It ends
    the sample, not the run (`engine.run_units` logs the sample's error
    record); a retry may cure each but CacheMiss."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class CacheMiss(BackendUnavailable):
    """A canned backend has no response for the request: a replay store holds
    none, or a script ran out. It never will, so `engine.complete_with_retry`
    raises it at once instead of retrying."""


class BackendTimeout(BackendUnavailable):
    pass


class ResponseEmpty(BackendUnavailable):
    pass


# --- metrics / analysis ---

class EmptyScoreSet(VtagentError):
    pass


class NonFinite(VtagentError):
    pass
