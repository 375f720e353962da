"""Pluggable text-generation backends.

Three implementations share one `complete(request) -> str` surface:

* HttpBackend     — chat-completions wire client (text + image_url parts); the
                    body is streamed as bytes with each frame's base64 spliced
                    in unescaped, byte-identical to `json.dumps` of the payload.
                    Its Content-Length comes from the frames' file sizes, and
                    the stream holds one frame's base64 at a time. A frame
                    missing when the call starts raises MissingFrameFile, which
                    the CLI reports with exit 2. One HTTP/1.1 POST per call,
                    on a socket of its own that `_exchange` writes and reads
                    (RFC 9112 framing, no http.client): proxies come from the
                    environment, TLS uses the default context, netrc is not
                    read, and a redirect is followed as a GET that carries
                    neither the body nor the key
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
import re
import socket
import ssl
import string
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Protocol, Sequence, Union
from urllib.parse import quote, unquote, urljoin, urlsplit
from urllib.request import getproxies, proxy_bypass_environment

from . import __version__
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

_USER_AGENT = f"vtagent/{__version__}"
_MAX_LINE = 1 << 16  # bytes in a status, header or chunk-size line, its end included
_MAX_FIELDS = 100  # header fields in one reply
_MAX_REDIRECTS = 10  # urllib's max_redirections
# an URL goes on the request line as it is: no space, control or non-ASCII
_URL_FAULT = re.compile(r"[^\x21-\x7e]")
# a header field's value: a control other than tab (CR and LF would end the
# field, NUL cut it) or a character Latin-1 cannot encode
_FIELD_FAULT = re.compile(r"[^\t\x20-\x7e\x80-\xff]")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key: Optional[str] = None
    # the proxies of the environment, urllib's getproxies() with its "no"
    # entry from NO_PROXY, read once per endpoint
    proxies: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "proxies", getproxies())

    def _tls(self) -> ssl.SSLContext:
        """The context of this endpoint's TLS connections, made on first use:
        the default one, which checks the hostname and reads the trust store
        that SSL_CERT_FILE and SSL_CERT_DIR point to."""
        context = self.__dict__.get("_context")
        if context is None:
            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])
            object.__setattr__(self, "_context", context)
        return context


def _frame_base64(path: str, size: int) -> bytes:
    """The base64 of a frame that _wire_stream stat'ed at `size` bytes; its
    raw bytes are freed on return, before the stream joins the base64 to text.

    Any fault raises a VtagentError naming the path: an OSError raised while
    the body is sent would pass for a socket fault, and so for a transient
    BackendUnavailable, whose retry would declare the same wrong length again.
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


def _split(url: str) -> tuple[str, str, int, str, str]:
    """(scheme, host, port, authority, origin-form target) of an http or
    https URL, its fragment dropped; a ValueError says what else it is."""
    if _URL_FAULT.search(url):
        raise ValueError("holds a space, a control or a non-ASCII character")
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError("is not an http or https URL")
    if not parts.hostname:
        raise ValueError("has no host")
    if "@" in parts.netloc:
        raise ValueError("holds user info")
    port = parts.port  # a ValueError if it is not a port
    if port is None:
        port = 443 if parts.scheme == "https" else 80
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return parts.scheme, parts.hostname, port, parts.netloc, target


def _head(method: str, target: str, fields: Sequence[tuple[str, str]]) -> bytes:
    """The request line and header section. A value that would break the
    framing raises VtagentError: the call can never be sent."""
    lines = [f"{method} {target} HTTP/1.1"]
    for name, value in fields:
        if _FIELD_FAULT.search(value):
            raise VtagentError(f"header {name} holds a control or non-Latin-1 character")
        lines.append(f"{name}: {value}")
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1")


def _line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise BackendUnavailable(f"{what} line over {_MAX_LINE} bytes")
    return line


def _status(reader) -> tuple[int, str]:
    """The status code and reason of a reply's status line."""
    line = _line(reader, "status")
    if not line:
        raise BackendUnavailable("connection closed before a reply")
    version, _, rest = line.rstrip(b"\r\n").partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not (version in (b"HTTP/1.0", b"HTTP/1.1") and len(code) == 3 and code.isdigit()):
        raise BackendUnavailable(f"bad status line {line[:80]!r}")
    return int(code), reason.decode("latin-1")


def _fields(reader) -> dict[str, str]:
    """A header or trailer section's fields by lower-cased name, the values
    of a repeated name joined with ", " (RFC 9110 §5.3)."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _line(reader, "header")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line.endswith(b"\n"):
            raise BackendUnavailable("connection closed inside a header section")
        name, colon, value = line.decode("latin-1").partition(":")
        name = name.lower()
        if not colon or not name or name != name.strip():  # obs-fold too
            raise BackendUnavailable(f"bad header line {line[:80]!r}")
        value = value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise BackendUnavailable(f"more than {_MAX_FIELDS} header fields")


def _exactly(reader, n: int) -> bytes:
    """n bytes, read a MiB at most at a time: a false length claims no memory
    up front."""
    parts = []
    while n > 0:
        part = reader.read(min(n, 1 << 20))
        if not part:
            raise BackendUnavailable(f"reply body cut short, {n} bytes missing")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _chunked(reader) -> bytes:
    """A chunked body (RFC 9112 §7.1): chunk extensions and the trailer
    section are read and dropped."""
    parts = []
    while True:
        line = _line(reader, "chunk size")
        size = line.partition(b";")[0].strip()
        if not _HEX.fullmatch(size):
            raise BackendUnavailable(f"bad chunk size line {line[:80]!r}")
        n = int(size, 16)
        if n == 0:
            break
        parts.append(_exactly(reader, n))
        if _line(reader, "chunk end") not in (b"\r\n", b"\n"):
            raise BackendUnavailable("chunk longer than its size")
    _fields(reader)
    return b"".join(parts)


def _reply(reader) -> tuple[int, dict[str, str], bytes]:
    """Status, fields and body of the reply, after any 1xx interim ones; the
    body ends as RFC 9112 §6.3 says for a reply to a GET or POST."""
    status = 100
    while status < 200:
        status, _ = _status(reader)
        fields = _fields(reader)
    if status in (204, 304):
        return status, fields, b""
    coding = fields.get("transfer-encoding")
    if coding is not None:
        if coding.lower() != "chunked":
            raise BackendUnavailable(f"unsupported transfer coding {coding!r}")
        return status, fields, _chunked(reader)
    length = fields.get("content-length")
    if length is None:
        return status, fields, reader.read()  # until the server closes
    lengths = {n.strip() for n in length.split(",")}
    n = lengths.pop()
    if lengths or not (n.isascii() and n.isdigit()):
        raise BackendUnavailable(f"bad Content-Length {length!r}")
    return status, fields, _exactly(reader, int(n))


def _proxy(config: EndpointConfig, scheme: str,
           authority: str) -> Optional[tuple[tuple[str, int], Optional[str]]]:
    """(address, Proxy-Authorization value or None) of the proxy for a URL of
    this scheme and authority, or None to connect directly. A proxy URL
    without a scheme is an http one; its user info, if it holds a password,
    becomes Basic credentials, as urllib sends them."""
    proxy = config.proxies.get(scheme)
    if not proxy or proxy_bypass_environment(authority, config.proxies):
        return None
    try:
        parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        port = parts.port
    except ValueError as e:
        raise BackendUnavailable(f"bad proxy URL {proxy!r}: {e}") from e
    if not parts.hostname:
        raise BackendUnavailable(f"bad proxy URL {proxy!r}: it has no host")
    credentials = None
    if parts.username and parts.password:
        user_pass = f"{unquote(parts.username)}:{unquote(parts.password)}"
        credentials = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
    address = (parts.hostname, port if port is not None else
               443 if parts.scheme == "https" else 80)
    return address, credentials


def _tunnel(sock: socket.socket, host: str, port: int, credentials: Optional[str]) -> None:
    """Ask the proxy at the other end of sock for a tunnel to host:port."""
    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    fields = [("Host", authority)]
    if credentials is not None:
        fields.append(("Proxy-Authorization", credentials))
    sock.sendall(_head("CONNECT", authority, fields))
    with sock.makefile("rb") as reader:
        status, reason = _status(reader)
        _fields(reader)
    if not 200 <= status < 300:
        raise BackendUnavailable(f"proxy refused CONNECT {authority}: {status} {reason}")


def _exchange_once(config: EndpointConfig, parts: tuple[str, str, int, str, str],
                   timeout: float, fields: Sequence[tuple[str, str]],
                   body: Optional[Iterator[bytes]]) -> tuple[int, dict[str, str], bytes]:
    """One request to the URL of these _split parts, on a connection of its
    own, closed on every path."""
    scheme, host, port, authority, target = parts
    head = [("Host", authority), ("User-Agent", _USER_AGENT),
            ("Accept-Encoding", "identity"), ("Connection", "close")]
    route = _proxy(config, scheme, authority)
    address, credentials = route if route is not None else ((host, port), None)
    if route is not None and scheme == "http":  # absolute form, to the proxy itself
        target = f"http://{authority}{target}"
        if credentials is not None:
            head.append(("Proxy-Authorization", credentials))
    sock = socket.create_connection(address, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if scheme == "https":
            if route is not None:
                _tunnel(sock, host, port, credentials)
            sock = config._tls().wrap_socket(sock, server_hostname=host)
        sock.sendall(_head("GET" if body is None else "POST", target, [*head, *fields]))
        for chunk in body or ():
            sock.sendall(chunk)
        with sock.makefile("rb") as reader:
            return _reply(reader)
    finally:
        sock.close()


def _exchange(config: EndpointConfig, url: str, timeout: float,
              fields: Sequence[tuple[str, str]] = (),
              body: Optional[Iterator[bytes]] = None) -> tuple[int, dict[str, str], bytes]:
    """Status, fields (by lower-cased name) and body of the reply to a POST
    of body to url with these header fields, or to a GET of url when body is
    None, whatever the status. A 301, 302 or 303 is followed as a GET
    without the fields and body, up to _MAX_REDIRECTS hops; the reply after
    the last hop is returned as it is. A connect or read timeout raises
    BackendTimeout; any other socket, TLS or framing fault, and a redirect
    to a URL that is not http or https, BackendUnavailable."""
    hops = 0
    while True:
        try:
            parts = _split(url)
        except ValueError as e:  # a redirect's URL; build_backend checks the base URL
            raise BackendUnavailable(f"{url}: {e}") from e
        try:
            reply = _exchange_once(config, parts, timeout, fields, body)
        except TimeoutError as e:
            raise BackendTimeout(f"{url}: {e}") from e
        except (OSError, UnicodeError) as e:  # UnicodeError: a host name IDNA cannot encode
            raise BackendUnavailable(f"{url}: {e}") from e
        status, headers, _ = reply
        if status not in (301, 302, 303) or "location" not in headers or hops == _MAX_REDIRECTS:
            return reply
        hops += 1
        # as urllib quotes it, so the new URL holds no space or control
        url = quote(urljoin(url, headers["location"]), encoding="latin-1",
                    safe=string.punctuation)
        fields, body = (), None


def http_complete(config: EndpointConfig, request: GenerationRequest) -> str:
    """One POST to {base_url}/chat/completions. Never retries internally."""
    # a fresh stream per call: a retry resends the whole body
    length, body = _wire_stream(config, request)
    fields = [("Content-Type", "application/json"), ("Content-Length", str(length))]
    if config.api_key:  # a redirect drops the fields, so it never carries the key
        fields.append(("Authorization", f"Bearer {config.api_key}"))
    status, headers, raw = _exchange(config, config.base_url.rstrip("/") + "/chat/completions",
                                     HTTP_TIMEOUT_S, fields, body)
    if status == 429:
        # only the delay-seconds form; for an HTTP-date the engine backs off
        seconds = headers.get("retry-after", "").strip()
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
