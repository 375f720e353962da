"""Pluggable text-generation backends.

Three implementations share one `complete(request) -> str` surface:

* HttpBackend     — chat-completions wire client (text + image_url parts)
* ScriptedBackend — queue of canned responses for tests and dry runs
* ReplayBackend   — deterministic cache keyed by a canonical request digest

Retry policy lives in the engine, never here.
"""

from __future__ import annotations

import base64
import hashlib
import json
import mimetypes
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Protocol, Union

import requests

from .errors import BackendTimeout, BackendUnavailable, ResponseEmpty, StoreWriteFailed


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    path: str
    index: int  # frame index label shown to the model


Part = Union[TextPart, ImagePart]


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    parts: tuple[Part, ...]

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role {self.role!r}")
        if not self.parts:
            raise ValueError("message needs at least one part")


@dataclass(frozen=True)
class GenerationRequest:
    messages: tuple[Message, ...]
    max_new_tokens: int = 512
    temperature: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.messages or self.messages[-1].role != "user":
            raise ValueError("messages must be non-empty and end with a user turn")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

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


@dataclass(frozen=True)
class Transcript:
    request_digest: str
    response_text: str
    latency_ms: int
    backend_id: str


class Backend(Protocol):
    backend_id: str

    def complete(self, request: GenerationRequest) -> str: ...


def canonicalize_request(request: GenerationRequest) -> str:
    """Stable serialization: field-sorted JSON, independent of construction order."""
    obj = {
        "messages": [
            {
                "role": m.role,
                "parts": [
                    {"type": "text", "text": p.text}
                    if isinstance(p, TextPart)
                    else {"type": "image", "path": p.path, "index": p.index}
                    for p in m.parts
                ],
            }
            for m in request.messages
        ],
        "max_new_tokens": request.max_new_tokens,
        "temperature": request.temperature,
        "seed": request.seed,
    }
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def request_digest(request: GenerationRequest) -> str:
    return request.digest


class ScriptedBackend:
    """Returns queued responses in order. Thread-safe single-consumer queue."""

    def __init__(self, responses: list[str], backend_id: str = "scripted"):
        self.backend_id = backend_id
        self._responses = list(responses)
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: GenerationRequest) -> str:
        with self._lock:
            self.calls += 1
            if not self._responses:
                raise BackendUnavailable("script exhausted")
            return self._responses.pop(0)


class FunctionBackend:
    """Computes the response from the request; handy for oracle test doubles."""

    def __init__(self, fn: Callable[[GenerationRequest], str], backend_id: str = "function"):
        self.backend_id = backend_id
        self._fn = fn
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: GenerationRequest) -> str:
        with self._lock:
            self.calls += 1
        return self._fn(request)


class TranscriptStore:
    """Append-only JSONL keyed by request digest; newest entry wins on reload."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._cache: dict[str, Transcript] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                t = Transcript(
                    request_digest=obj["digest"],
                    response_text=obj["response"],
                    latency_ms=int(obj.get("latency_ms", 0)),
                    backend_id=obj.get("backend_id", ""),
                )
                self._cache[t.request_digest] = t

    def get(self, digest: str) -> Optional[Transcript]:
        with self._lock:
            return self._cache.get(digest)

    def record(self, request: GenerationRequest, response: str,
               latency_ms: int = 0, backend_id: str = "") -> Transcript:
        t = Transcript(request_digest=request.digest, response_text=response,
                       latency_ms=latency_ms, backend_id=backend_id)
        line = json.dumps({
            "digest": t.request_digest, "response": t.response_text,
            "latency_ms": t.latency_ms, "backend_id": t.backend_id,
        }, ensure_ascii=False)
        with self._lock:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except OSError as e:
                raise StoreWriteFailed(str(e)) from e
            self._cache[t.request_digest] = t
        return t

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


class ReplayBackend:
    """Serves stored responses by digest. Strict mode never touches the network."""

    def __init__(self, store: TranscriptStore, backend_id: str = "replay"):
        self.backend_id = backend_id
        self.store = store

    def complete(self, request: GenerationRequest) -> str:
        t = self.store.get(request.digest)
        if t is None:
            raise BackendUnavailable("cache miss")
        return t.response_text


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


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key: Optional[str] = None
    timeout_s: float = 120.0


def _image_url(path: str) -> str:
    """The image file as a base64 data URI."""
    mime = mimetypes.guess_type(path)[0] or "image/png"
    data = base64.b64encode(Path(path).read_bytes()).decode("ascii")
    return f"data:{mime};base64,{data}"


def _wire_payload(config: EndpointConfig, request: GenerationRequest) -> dict:
    messages = []
    for m in request.messages:
        content = []
        for p in m.parts:
            if isinstance(p, TextPart):
                content.append({"type": "text", "text": p.text})
            else:
                content.append({"type": "image_url",
                                "image_url": {"url": _image_url(p.path)}})
        messages.append({"role": m.role, "content": content})
    payload = {
        "model": config.model,
        "messages": messages,
        "max_tokens": request.max_new_tokens,
        "temperature": request.temperature,
    }
    if request.seed is not None:
        payload["seed"] = request.seed
    return payload


def http_complete(config: EndpointConfig, request: GenerationRequest) -> str:
    """One POST to {base_url}/chat/completions. Never retries internally."""
    url = config.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    try:
        resp = requests.post(url, json=_wire_payload(config, request),
                             headers=headers, timeout=config.timeout_s)
    except requests.Timeout as e:
        raise BackendTimeout(str(e)) from e
    except requests.RequestException as e:
        raise BackendUnavailable(str(e)) from e
    if resp.status_code == 429:
        retry_after = resp.headers.get("Retry-After")
        raise BackendUnavailable("rate limited (429)",
                                 retry_after=float(retry_after) if retry_after else None)
    if not 200 <= resp.status_code < 300:
        raise BackendUnavailable(f"HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        body = resp.json()
    except ValueError as e:
        raise BackendUnavailable(f"non-JSON response body: {e}") from e
    choices = body.get("choices") or []
    if not choices:
        raise ResponseEmpty("empty choices array")
    try:
        content = choices[0]["message"]["content"]
    except (KeyError, TypeError, IndexError) as e:
        raise BackendUnavailable(f"malformed response body: {e}") from e
    if content is None or content == "":
        raise ResponseEmpty("empty message content")
    return content


class HttpBackend:
    def __init__(self, config: EndpointConfig):
        self.backend_id = f"http({config.model})"
        self.config = config

    def complete(self, request: GenerationRequest) -> str:
        return http_complete(self.config, request)
