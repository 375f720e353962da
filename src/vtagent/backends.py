"""Pluggable text-generation backends.

Three implementations share one `complete(request) -> str` surface:

* HttpBackend     — chat-completions wire client (text + image_url parts); the
                    body is streamed as bytes with each frame's base64 spliced
                    in unescaped, byte-identical to `json.dumps` of the payload.
                    Its Content-Length comes from the frames' file sizes, and
                    the stream holds one frame's base64 at a time. A frame
                    missing when the call starts raises MissingFrameFile, which
                    the CLI reports with exit 2. One standard-library `urllib`
                    POST per call, on a connection of its own: proxies come
                    from the environment, netrc is not read, and the key is an
                    unredirected header, so a redirect never carries it
* ScriptedBackend — queue of canned responses for tests and dry runs
* ReplayBackend   — deterministic cache keyed by a canonical request digest,
                    spliced from the JSON fragment each prompt part and each
                    message writes once, when it is built

Retry policy lives in the engine, never here.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import mimetypes
import os
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPException, HTTPMessage
from pathlib import Path
from typing import Callable, Iterator, Optional, Protocol, Union
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from .errors import (BackendTimeout, BackendUnavailable, CacheMiss, MalformedRecord,
                     MissingFrameFile, ResponseEmpty, VtagentError)
from .jsonl import read_log


# json.dumps(s, ensure_ascii=False) of a str s, without the encoder set-up
_escape = json.encoder.encode_basestring


@dataclass(frozen=True, slots=True)
class TextPart:
    text: str
    # this part's object in the canonical form, made once: see canonicalize_request
    canonical: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "canonical", f'{{"text":{_escape(self.text)},"type":"text"}}')


@dataclass(frozen=True, slots=True)
class ImagePart:
    path: str
    index: int  # frame index label shown to the model
    canonical: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the int through int's repr, as json writes it
        object.__setattr__(self, "canonical", f'{{"index":{int.__repr__(self.index)},'
                                              f'"path":{_escape(self.path)},"type":"image"}}')


Part = Union[TextPart, ImagePart]


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    parts: tuple[Part, ...]
    # this message's object in the canonical form, joined once from its
    # parts' fragments: see canonicalize_request
    canonical: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role {self.role!r}")
        if not self.parts:
            raise ValueError("message needs at least one part")
        object.__setattr__(self, "canonical", '{"parts":[' + ",".join(
            [p.canonical for p in self.parts]) + '],"role":' + _escape(self.role) + "}")


@dataclass(frozen=True)
class GenerationRequest:
    messages: tuple[Message, ...]
    max_new_tokens: int = 512
    temperature: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.messages or self.messages[-1].role != "user":
            raise ValueError("messages must be non-empty and end with a user turn")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")

    @property
    def digest(self) -> str:
        """sha256 of the canonical form, computed once per request object."""
        # not functools.cached_property: before Python 3.12 it takes one lock
        # shared by all instances, which convoys parallel workers
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = hashlib.sha256(canonicalize_request(self).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest


class Backend(Protocol):
    backend_id: str

    def complete(self, request: GenerationRequest) -> str: ...


def canonicalize_request(request: GenerationRequest) -> str:
    """Stable serialization, independent of construction order; its sha256 is
    the key of every transcript store, so one changed byte orphans them all.

    Byte for byte `json.dumps(tree, sort_keys=True, ensure_ascii=False,
    separators=(",", ":"))` of the tree {max_new_tokens, messages: [{role,
    parts: [{type: "text", text} | {type: "image", path, index}]}],
    temperature, seed}, but spliced rather than dumped. Each part's and each
    message's object is its `canonical` fragment, written once when it is
    built, so a part that several prompts share (a frame's label and image)
    is escaped once and a message that several requests share (a curation
    sample's anchor turn) is joined once; the fragments are joined inside the
    keys of each message and of the request, in sorted order. Strings go
    through json's own escaper, the ints max_new_tokens and index through
    int's repr as json writes them, and seed and temperature through
    `_json_scalar`, which writes them as json does.
    """
    return "".join(['{"max_new_tokens":', int.__repr__(request.max_new_tokens),
                    ',"messages":[', ",".join([m.canonical for m in request.messages]),
                    '],"seed":', _json_scalar(request.seed),
                    ',"temperature":', _json_scalar(request.temperature), "}"])


def _json_scalar(value) -> str:
    """What `json.dumps(value)` writes. None, bools, ints and finite floats are
    written as json's encoder writes them, with int's and float's own repr
    (also for subclasses such as numpy.float64); anything else goes through
    json.dumps."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def request_digest(request: GenerationRequest) -> str:
    return request.digest


class ScriptedBackend:
    """Returns queued responses in order. Thread-safe single-consumer queue."""

    backend_id = "scripted"

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: GenerationRequest) -> str:
        with self._lock:
            self.calls += 1
            if not self._responses:
                raise CacheMiss("script exhausted")
            return self._responses.pop(0)


class FunctionBackend:
    """Computes the response from the request; handy for oracle test doubles."""

    backend_id = "function"

    def __init__(self, fn: Callable[[GenerationRequest], str]):
        self._fn = fn
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: GenerationRequest) -> str:
        with self._lock:
            self.calls += 1
        return self._fn(request)


class TranscriptStore:
    """Append-only JSONL keyed by request digest; newest entry wins on reload.
    Only the response is kept in memory: a record's latency_ms and
    backend_id are written for the reader of the file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._responses: dict[str, str] = {}
        for line_no, obj in read_log(self.path):
            digest, response = obj.get("digest"), obj.get("response")
            if not (isinstance(digest, str) and isinstance(response, str)):
                raise MalformedRecord(line_no, f"bad store record in {self.path}: "
                                               "digest and response must be strings")
            if type(obj.get("latency_ms", 0)) is not int:  # not a bool or a float either
                raise MalformedRecord(line_no, f"bad store record in {self.path}: "
                                               "latency_ms must be an integer")
            self._responses[digest] = response

    def get(self, digest: str) -> Optional[str]:
        """The stored response to the request with this digest, or None."""
        with self._lock:
            return self._responses.get(digest)

    def record(self, request: GenerationRequest, response: str,
               latency_ms: int = 0, backend_id: str = "") -> None:
        digest = request.digest
        line = json.dumps({"digest": digest, "response": response,
                           "latency_ms": latency_ms, "backend_id": backend_id},
                          ensure_ascii=False)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._responses[digest] = response


class ReplayBackend:
    """Serves stored responses by digest. Strict mode never touches the network.

    The digest holds each frame's path, not its bytes: a frame re-extracted
    under the same path replays the answer recorded for the old one."""

    backend_id = "replay"

    def __init__(self, store: TranscriptStore):
        self.store = store

    def complete(self, request: GenerationRequest) -> str:
        response = self.store.get(request.digest)
        if response is None:
            raise CacheMiss("cache miss")
        return response


class RecordingBackend:
    """Pass-through wrapper that records every completion into a store."""

    def __init__(self, inner: Backend, store: TranscriptStore):
        self.backend_id = f"recording({getattr(inner, 'backend_id', '?')})"
        self.inner = inner
        self.store = store

    def complete(self, request: GenerationRequest) -> str:
        start = time.monotonic()
        response = self.inner.complete(request)
        latency_ms = int((time.monotonic() - start) * 1000)
        self.store.record(request, response, latency_ms=latency_ms,
                          backend_id=getattr(self.inner, "backend_id", ""))
        return response


HTTP_TIMEOUT_S = 120.0  # connect and read timeout of one POST


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key: Optional[str] = None


def _frame_base64(path: str, size: int) -> bytes:
    """The base64 of a frame that _wire_stream stat'ed at `size` bytes; its
    raw bytes are freed on return, before the stream joins the base64 to text.

    Any fault raises a VtagentError naming the path: an OSError raised inside
    urlopen would become a URLError, and so a transient BackendUnavailable,
    whose retry would declare the same wrong length again.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise VtagentError(f"frame file unreadable while sending: {path}: {e}") from e
    if len(data) != size:
        raise VtagentError(f"frame file changed size while sending: {path}")
    return base64.b64encode(data)


def _wire_stream(config: EndpointConfig,
                 request: GenerationRequest) -> tuple[int, Iterator[bytes]]:
    """The chat-completions request body as (length, chunks). Joined, the
    chunks are byte for byte `json.dumps(payload, allow_nan=False).encode()`
    of the OpenAI-style payload, and length is their byte count.

    Each frame's base64 is spliced in as bytes: base64 needs no JSON escaping,
    so the encoder never scans frame data. Frames are stat'ed here, so a
    missing one raises MissingFrameFile before any connection opens, and its
    base64 length, 4 * ceil(size / 3), comes from the file size. Each chunk is
    the JSON text before one frame joined with that frame's base64, read and
    encoded only when the stream reaches it; a last chunk carries the tail.
    So a call holds one frame's base64 at a time.
    """
    def dump(obj) -> bytes:
        return json.dumps(obj, allow_nan=False).encode()

    texts = []  # the JSON text before each frame, then the tail
    frames = []  # (path, size) of each frame
    chunks = [b'{"model": ', dump(config.model), b', "messages": [']
    for m in request.messages:
        chunks += [b'{"role": ', dump(m.role), b', "content": [']
        for p in m.parts:
            if isinstance(p, TextPart):
                chunks.append(dump({"type": "text", "text": p.text}))
            else:
                try:  # follows symlinks, as the manifest load's check does
                    size = os.stat(p.path).st_size
                except OSError as e:
                    raise MissingFrameFile(p.path) from e
                mime = mimetypes.guess_type(p.path)[0] or "image/png"
                # the URL string's dump without its closing quote
                chunks.append(b'{"type": "image_url", "image_url": {"url": '
                              + dump(f"data:{mime};base64,")[:-1])
                texts.append(b"".join(chunks))
                frames.append((p.path, size))
                chunks = [b'"}}']
            chunks.append(b", ")
        # Message and GenerationRequest reject empty parts and messages, so a
        # trailing separator is always there to replace
        chunks[-1] = b"]}, "  # the last part's separator closes the message
    chunks[-1] = b"]}], "  # the last message's separator closes the list
    tail = {"max_tokens": request.max_new_tokens, "temperature": request.temperature}
    if request.seed is not None:
        tail["seed"] = request.seed
    chunks.append(dump(tail)[1:])  # its fields, then the closing brace
    texts.append(b"".join(chunks))
    length = sum(map(len, texts)) + sum(4 * -(-size // 3) for _, size in frames)

    def stream() -> Iterator[bytes]:
        for text, (path, size) in zip(texts, frames):
            yield text + _frame_base64(path, size)
        yield texts[-1]

    return length, stream()


def _exchange(request: Request | str, timeout: float) -> tuple[int, HTTPMessage, bytes]:
    """Status, headers and body of one urllib exchange (a GET of a str URL),
    whatever the status; a transport failure raises BackendTimeout or
    BackendUnavailable."""
    try:
        try:
            with urlopen(request, timeout=timeout) as resp:
                return resp.status, resp.headers, resp.read()
        except HTTPError as e:  # a reply, but not a 2xx one
            with e:  # an unclosed HTTPError keeps its socket open
                return e.code, e.headers, e.read()
    # a connect timeout comes wrapped in a URLError, a read timeout bare; a
    # URL without a scheme raises ValueError
    except (OSError, HTTPException, ValueError) as e:
        if isinstance(e, TimeoutError) or isinstance(getattr(e, "reason", None), TimeoutError):
            raise BackendTimeout(str(e)) from e
        raise BackendUnavailable(str(e)) from e


def http_complete(config: EndpointConfig, request: GenerationRequest) -> str:
    """One POST to {base_url}/chat/completions. Never retries internally."""
    length, body = _wire_stream(config, request)
    # a fresh stream per call: a retry resends the whole body
    req = Request(config.base_url.rstrip("/") + "/chat/completions", data=body,
                  headers={"Content-Type": "application/json",
                           "Content-Length": str(length)})
    if config.api_key:
        # an unredirected header is never forwarded to a redirect's target
        req.add_unredirected_header("Authorization", f"Bearer {config.api_key}")
    status, headers, raw = _exchange(req, HTTP_TIMEOUT_S)
    if status == 429:
        # only the delay-seconds form; for an HTTP-date the engine backs off
        seconds = headers.get("Retry-After", "").strip()
        raise BackendUnavailable("rate limited (429)",
                                 retry_after=float(seconds) if seconds.isdecimal() else None)
    if not 200 <= status < 300:
        raise BackendUnavailable(f"HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}")
    try:
        body = json.loads(raw)
    except ValueError as e:
        raise BackendUnavailable(f"non-JSON response body: {e}") from e
    if not isinstance(body, dict):
        raise BackendUnavailable("malformed response body: not a JSON object")
    choices = body.get("choices") or []
    if not choices:
        raise ResponseEmpty("empty choices array")
    try:
        content = choices[0]["message"]["content"]
    except (KeyError, TypeError, IndexError) as e:
        raise BackendUnavailable(f"malformed response body: {e}") from e
    if content is None or content == "":
        raise ResponseEmpty("empty message content")
    if not isinstance(content, str):
        raise BackendUnavailable("malformed response body: content is not a string")
    try:
        content.encode()  # a lone surrogate, from a \ud83d escape, cannot be logged
    except UnicodeEncodeError as e:
        raise BackendUnavailable(f"malformed response body: {e}") from e
    return content


class HttpBackend:
    def __init__(self, config: EndpointConfig):
        self.backend_id = f"http({config.model})"
        self.config = config

    def complete(self, request: GenerationRequest) -> str:
        return http_complete(self.config, request)
