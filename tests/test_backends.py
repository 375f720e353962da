import base64
import contextlib
import hashlib
import json
import math
import os
import re
import select
import shutil
import socket
import ssl
import subprocess
import sys
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import src_env, write_manifest_file
from hypothesis import given, settings
from hypothesis import strategies as st

import vtagent
from vtagent import cli, jsonl
from vtagent.backends import (EndpointConfig, GenerationRequest, HttpBackend,
                              ImagePart, Message, RecordingBackend, ReplayBackend,
                              ScriptedBackend, TextPart, TranscriptStore,
                              _json_scalar, _wire_stream, canonicalize_request, http_complete,
                              read_log, request_digest)
from vtagent.engine import EngineConfig, complete_with_retry
from vtagent.errors import (BackendTimeout, BackendUnavailable, CacheMiss,
                            MalformedRecord, MissingFrameFile, ResponseEmpty, VtagentError)


def simple_request(text="hello", seed=None):
    return GenerationRequest(
        messages=(Message(role="user", parts=(TextPart(text),)),),
        max_new_tokens=32, temperature=0.0, seed=seed)


class TestDigest:
    def test_stable_across_objects(self):
        assert request_digest(simple_request()) == request_digest(simple_request())

    def test_cached_digest_is_sha256_of_canonical_form(self):
        req = simple_request(seed=3)
        want = hashlib.sha256(canonicalize_request(req).encode("utf-8")).hexdigest()
        assert req.digest == want
        assert request_digest(req) == want
        assert replace(req, seed=4).digest != want

    def test_key_order_irrelevant(self):
        # canonical form is key-sorted: reserializing a reversed-key view of the
        # parsed object lands on the same bytes
        canon = canonicalize_request(simple_request())
        reordered = dict(reversed(list(json.loads(canon).items())))
        assert canon == json.dumps(reordered, sort_keys=True,
                                   ensure_ascii=False, separators=(",", ":"))

    @given(st.sampled_from(["text", "max_new_tokens", "temperature", "seed"]))
    @settings(max_examples=20)
    def test_any_field_change_changes_digest(self, field):
        base = simple_request(seed=1)
        if field == "text":
            mutated = simple_request(text="other", seed=1)
        elif field == "max_new_tokens":
            mutated = replace(base, max_new_tokens=base.max_new_tokens + 1)
        elif field == "temperature":
            mutated = replace(base, temperature=0.7)
        else:
            mutated = replace(base, seed=2)
        assert request_digest(base) != request_digest(mutated)


def reference_canonical(request):
    """The canonical form as it was first defined: a dict tree dumped with
    sorted keys. canonicalize_request splices the same bytes."""
    obj = {
        "messages": [
            {"role": m.role,
             "parts": [{"type": "text", "text": p.text} if isinstance(p, TextPart)
                       else {"type": "image", "path": p.path, "index": p.index}
                       for p in m.parts]}
            for m in request.messages
        ],
        "max_new_tokens": request.max_new_tokens,
        "temperature": request.temperature,
        "seed": request.seed,
    }
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


# quotes, backslashes, control characters, JavaScript line separators, non-BMP
# characters and lone surrogates, among any other character
_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\u00e9\U0001F600\ud800'),
                          st.characters(exclude_categories=())), max_size=12)
_parts = st.lists(st.one_of(st.builds(TextPart, _text),
                            st.builds(ImagePart, _text, st.integers(-2**70, 2**70))),
                  min_size=1, max_size=4).map(tuple)


# what the seed and temperature tail is written from: None, bools, ints and
# finite floats, with the floats json writes in exponent form, the signed
# zero, the smallest subnormal, and a float subclass
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64))


@st.composite
def requests(draw):
    earlier = draw(st.lists(st.builds(Message, st.sampled_from(["system", "user", "assistant"]),
                                      _parts), max_size=2))
    return GenerationRequest(
        messages=(*earlier, Message("user", draw(_parts))),
        max_new_tokens=draw(st.integers(0, 2**40)),
        temperature=draw(st.one_of(st.integers(0, 10**20),
                                   st.floats(0, 1e300, allow_nan=False, allow_infinity=False),
                                   _scalars.filter(lambda t: t is not None and t >= 0))),
        seed=draw(st.one_of(st.none(), st.integers(-2**64, 2**64), _scalars)))


@given(requests())
@settings(max_examples=300)
def test_canonical_form_is_the_sorted_json_dump(req):
    assert canonicalize_request(req) == reference_canonical(req)


@given(_scalars)
@settings(max_examples=500)
def test_tail_scalar_is_the_json_dump(value):
    assert _json_scalar(value) == json.dumps(value)


@given(st.data())
@settings(max_examples=100)
def test_canonical_form_of_shared_parts(data):
    """Parts reused across messages and requests, as a frame's label and
    image are, splice the same bytes wherever they appear."""
    pool = data.draw(_parts)
    shared = st.lists(st.sampled_from(pool), min_size=1, max_size=6).map(tuple)
    for _ in range(2):
        earlier = data.draw(st.lists(st.builds(Message, st.sampled_from(["user", "assistant"]),
                                               shared), max_size=2))
        req = GenerationRequest(messages=(*earlier, Message("user", data.draw(shared))),
                                seed=data.draw(st.one_of(st.none(), st.integers(0, 9))))
        assert canonicalize_request(req) == reference_canonical(req)


# sha256 digests computed before canonicalize_request was spliced: every
# recorded transcript store is keyed by these bytes
GOLDEN_DIGESTS = (
    (GenerationRequest(messages=(Message("user", (TextPart("What does the sign say?"),)),)),
     "0621dc2bb9208416163682052aa22ccf4634b6f8b7acc9915e285c0e0e1b7567"),
    (GenerationRequest(
        messages=(Message("system", (TextPart('Answer in <action>\u2026</action>; "quote" \\ tab\t'),)),
                  Message("user", (TextPart("Frame 0:"), ImagePart("frames/v1/0000.png", 0),
                                   TextPart("Frame 31:"), ImagePart("frames/v1/\u00e9 31.png", 31),
                                   TextPart("Select keyframes.\n\u2028 \U0001F600")))),
        max_new_tokens=256, temperature=1, seed=7),
     "c5a9b12fd3b5bdc2165abe30fbb411a7d322332435755d1301d04a4630d341f8"),
    (GenerationRequest(
        messages=(Message("user", (TextPart("q"),)),
                  Message("assistant", (TextPart("<action>[2]</action>"),)),
                  Message("user", (ImagePart("/abs/path/f.jpg", 2),
                                   TextPart("\x00\x1f\x7f\u2028")))),
        max_new_tokens=32, temperature=1e-7, seed=2**63),
     "d17e05d6a322d562a75ab2ab3d00efd4edb8aa05a7ab6529fc1f0049f1637e9c"),
)


@pytest.mark.parametrize("req,digest", GOLDEN_DIGESTS, ids=["text", "images_escapes", "turns"])
def test_golden_digests(req, digest):
    assert request_digest(req) == digest


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, -0.5])
def test_request_temperature_must_be_finite_and_non_negative(temperature):
    with pytest.raises(ValueError, match="temperature"):
        replace(simple_request(), temperature=temperature)


class TestScripted:
    def test_queue_order(self):
        backend = ScriptedBackend(["A", "B"])
        assert backend.complete(simple_request()) == "A"
        assert backend.complete(simple_request()) == "B"

    def test_exhausted(self):
        backend = ScriptedBackend([])
        with pytest.raises(BackendUnavailable):
            backend.complete(simple_request())

    def test_exhausted_is_permanent_but_still_a_backend_failure(self):
        with pytest.raises(CacheMiss, match="script exhausted") as exc:
            ScriptedBackend([]).complete(simple_request())
        assert isinstance(exc.value, BackendUnavailable)


class TestReplay:
    def test_record_then_replay(self, tmp_path):
        store = TranscriptStore(tmp_path / "store.jsonl")
        inner = ScriptedBackend(["recorded response"])
        recording = RecordingBackend(inner, store)
        req = simple_request()
        assert recording.complete(req) == "recorded response"
        replay = ReplayBackend(store)
        assert replay.complete(req) == "recorded response"
        assert inner.calls == 1  # replay never touched the inner backend

    def test_strict_miss(self, tmp_path):
        replay = ReplayBackend(TranscriptStore(tmp_path / "store.jsonl"))
        with pytest.raises(BackendUnavailable, match="cache miss"):
            replay.complete(simple_request())

    def test_two_requests_two_entries(self, tmp_path):
        store = TranscriptStore(tmp_path / "store.jsonl")
        store.record(simple_request("a"), "ra", latency_ms=7, backend_id="http(m\u00e9)")
        store.record(simple_request("b"), "rb")
        # the line format every recorded store holds
        assert (tmp_path / "store.jsonl").read_text(encoding="utf-8").splitlines() == [
            f'{{"digest": "{request_digest(simple_request(t))}", "response": "r{t}", '
            f'"latency_ms": {ms}, "backend_id": "{b}"}}'
            for t, ms, b in (("a", 7, "http(m\u00e9)"), ("b", 0, ""))]
        for loaded in (store, TranscriptStore(tmp_path / "store.jsonl")):
            assert [loaded.get(request_digest(simple_request(text)))
                    for text in "ab"] == ["ra", "rb"]

    def test_miss_is_permanent_but_still_a_backend_failure(self, tmp_path):
        replay = ReplayBackend(TranscriptStore(tmp_path / "store.jsonl"))
        with pytest.raises(CacheMiss) as exc:
            replay.complete(simple_request())
        assert isinstance(exc.value, BackendUnavailable)  # caught as a per-sample failure

    def test_torn_last_line_dropped_and_cut(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = TranscriptStore(path)
        for text in ("a", "b", "c"):
            store.record(simple_request(text), "r" + text)
        whole = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(whole[0] + whole[1] + whole[2][:60], encoding="utf-8")

        reloaded = TranscriptStore(path)
        assert [reloaded.get(request_digest(simple_request(text)))
                for text in "ab"] == ["ra", "rb"]
        assert reloaded.get(request_digest(simple_request("c"))) is None
        reloaded.record(simple_request("c"), "rc")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 3 and all(l.endswith("\n") for l in lines)
        assert [json.loads(l)["response"] for l in lines] == ["ra", "rb", "rc"]

    def test_malformed_inner_line_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"digest": "d", "response": "r"}\n{"dig\n{"digest": "e", '
                        '"response": "s"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecord, match="line 2"):
            TranscriptStore(path)

    @pytest.mark.parametrize("record", [
        {"foo": 1}, {"digest": "d"}, {"response": "r"}, {"digest": 1, "response": "r"},
        {"digest": "d", "response": None}, {"digest": "d", "response": "r", "latency_ms": "5"},
        {"digest": "d", "response": "r", "latency_ms": 1.5},
        {"digest": "d", "response": "r", "latency_ms": True}])
    def test_bad_record_raises_naming_its_line(self, tmp_path, record):
        path = tmp_path / "store.jsonl"
        path.write_text('{"digest": "a", "response": "r", "latency_ms": 3}\n'
                        + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord, match="line 2: bad store record"):
            TranscriptStore(path)

    def test_same_digest_newest_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = TranscriptStore(path)
        store.record(simple_request(), "old")
        store.record(simple_request(), "new")
        reloaded = TranscriptStore(path)
        assert reloaded.get(request_digest(simple_request())) == "new"


_log_text = st.text(st.sampled_from(['a', '"', "\\", "\r", "\n", "\u2028", "\u00e9", "\u6f22",
                                      "\U0001F600", " "]), max_size=6)
_log_objects = st.dictionaries(_log_text, st.one_of(
    _log_text, st.integers(), st.none(), st.booleans(), st.lists(_log_text, max_size=2)),
    max_size=3)
_object_lines = st.builds(lambda pad, obj, ascii_only, trail: (
    pad + json.dumps(obj, ensure_ascii=ascii_only) + trail),
    st.sampled_from(["", " ", "\t", " \t "]), _log_objects, st.booleans(),
    st.sampled_from(["", " ", "\t"]))
# lines that str.strip() empties; none holds a character that ends a line
_blank_lines = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\u2028 ", "\u00a0"])
# each invalid as JSON, per json.loads
_invalid_lines = st.sampled_from(['{"a": ', '{"a": 1} x', "\x0c{}", "\ufeff{}", '{"a" 1}', "nul",
                                  '{"a": 1}}'])


@st.composite
def jsonl_logs(draw):
    """(complete lines, a torn last line as bytes or None): JSONL as appends
    leave it, newline-terminated with one line ending throughout."""
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [line + ending for line in draw(st.lists(st.one_of(_object_lines, _blank_lines),
                                                     max_size=6))]
    torn = None
    if draw(st.booleans()):  # a kill mid-append: the last line cut anywhere, even mid-character
        whole = (draw(_object_lines) + ending).encode("utf-8")
        torn = whole[:draw(st.integers(1, len(whole) - 1))]
    return lines, ending, torn


# read_log's batch size in bytes: one line a batch, a few lines a
# batch, the default
_batch_bytes = st.sampled_from([1, 24, jsonl._BATCH_BYTES])


def _read_log_until_error(path, batch_bytes=jsonl._BATCH_BYTES):
    """The (line number, record) pairs read_log yields before the error it
    raises, and that error or None."""
    records = []
    try:
        with mock.patch.object(jsonl, "_BATCH_BYTES", batch_bytes):
            records.extend(read_log(path))
    except MalformedRecord as e:
        return records, e
    return records, None


@given(jsonl_logs(), _batch_bytes)
@settings(max_examples=300)
def test_read_log_yields_what_json_loads_yields_per_line(tmp_path_factory, log, batch_bytes):
    lines, _, torn = log
    path = tmp_path_factory.getbasetemp() / "log.jsonl"
    data = "".join(lines).encode("utf-8") + (torn or b"")
    path.write_bytes(data)
    expected = [(n, json.loads(line)) for n, line in enumerate(lines, 1) if line.strip()]
    left = data
    if torn is not None:
        last = torn.decode("utf-8", "surrogateescape")
        try:
            if last.strip():
                expected.append((len(lines) + 1, json.loads(last)))
            left += b"\n"  # a last line that parses gets its newline
        except ValueError:
            left = data[:-len(torn)]  # one that does not is cut off
    assert _read_log_until_error(path, batch_bytes) == (expected, None)
    assert path.read_bytes() == left


@given(jsonl_logs(), st.data(), _batch_bytes)
@settings(max_examples=200)
def test_read_log_names_an_invalid_inner_line_with_json_message(tmp_path_factory, log, data,
                                                                batch_bytes):
    lines, ending, torn = log
    at = data.draw(st.integers(0, len(lines)))
    bad = data.draw(_invalid_lines)
    lines = lines[:at] + [bad + ending] + lines[at:]
    path = tmp_path_factory.getbasetemp() / "log.jsonl"
    raw = "".join(lines).encode("utf-8") + (torn or b"")
    path.write_bytes(raw)
    with pytest.raises(ValueError) as json_error:
        json.loads(bad + ending)
    records, error = _read_log_until_error(path, batch_bytes)
    assert records == [(n, json.loads(line)) for n, line in enumerate(lines[:at], 1)
                       if line.strip()]
    assert (error.line_no, error.reason) == (at + 1,
                                             f"invalid JSON in {path}: {json_error.value}")
    assert path.read_bytes() == raw


def test_read_log_names_a_line_holding_a_lone_cr(tmp_path):
    """Only a newline ends a line: a line holding a lone \\r is one line, so
    one that does not parse is named, not taken for a torn last line."""
    path = tmp_path / "log.jsonl"
    raw = b'{"a": 1}\n{"b\r{"c": 2}\n{"d": 3}\n'
    path.write_bytes(raw)
    records, error = _read_log_until_error(path)
    assert records == [(1, {"a": 1})] and error.line_no == 2
    assert path.read_bytes() == raw


@pytest.mark.parametrize("bad", [b' {"a": "\xff', b'{"a": "t\xffext 0"}'],
                         ids=["bad-json", "good-json"])
@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_read_log_names_a_line_that_is_not_utf8(tmp_path, bad, ending):
    """A complete line holding a byte that is not UTF-8 is named, whether or
    not its JSON would parse, and the file is left as it is."""
    path = tmp_path / "log.jsonl"
    raw = b'{"a": 1}' + ending + bad + ending + b'{"b": 2}' + ending
    path.write_bytes(raw)
    records, error = _read_log_until_error(path)
    assert records == [(1, {"a": 1})] and error.line_no == 2
    assert error.reason.startswith(f"invalid UTF-8 in {path}: ")
    assert path.read_bytes() == raw


def _long_log(tmp_path, n=3000):
    """n store-like records, a blank line after every 97th: several of
    read_log's default batches."""
    lines = []
    for i in range(n):
        lines.append(json.dumps({"digest": f"{i:064x}", "response": f"r\u00e9\n{i}" * 3,
                                 "latency_ms": i}, ensure_ascii=False) + "\n")
        if i % 97 == 0:
            lines.append(" \t\n")
    assert len("".join(lines)) > 3 * jsonl._BATCH_BYTES
    return tmp_path / "log.jsonl", lines


def test_read_log_over_many_batches_reads_every_record_and_cuts_a_torn_last_line(tmp_path):
    path, lines = _long_log(tmp_path)
    torn = lines[-1][:30]
    path.write_text("".join(lines[:-1]) + torn, encoding="utf-8")
    expected = [(n, json.loads(line)) for n, line in enumerate(lines[:-1], 1) if line.strip()]
    assert _read_log_until_error(path) == (expected, None)
    assert path.read_text(encoding="utf-8") == "".join(lines[:-1])


@pytest.mark.parametrize("where", ["inner", "last"])
@pytest.mark.parametrize("bad, reason", [
    ('{"digest": "x",\n', "invalid JSON"),
    ("[1, 2]\n", "is not a JSON object"),
    # two objects on one line, and lines that a batch's separators would join
    # into one object
    ('{"b": 1}, {"c": 2}\n', "invalid JSON"),
    ('{"a": [1\n', "invalid JSON"),
    ('{"a": [1\n2]}\n{"b": 1},"\\u0000",{"c": 2}\n', "invalid JSON"),
])
def test_read_log_over_many_batches_names_a_bad_line(tmp_path, bad, reason, where):
    path, lines = _long_log(tmp_path)
    at = len(lines) * 2 // 3 if where == "inner" else len(lines)
    path.write_text("".join(lines[:at]) + bad + "".join(lines[at:]), encoding="utf-8")
    records, error = _read_log_until_error(path)
    assert records == [(n, json.loads(line)) for n, line in enumerate(lines[:at], 1)
                       if line.strip()]
    assert error.line_no == at + 1 and reason in error.reason


@pytest.mark.parametrize("reader", ["read_records", "read_log"])
@pytest.mark.parametrize("escape, lone", [
    ("\\ud83d\\ude00", False),  # a pair: one astral character
    ("\\ud83d", True), ("\\ude00", True), ("\\ude00\\ud83d", True),
    ("\\\\ud83d", False),  # an escaped backslash, then text
], ids=["pair", "high", "low", "reversed-pair", "backslash"])
def test_json_readers_name_a_line_holding_a_lone_surrogate(tmp_path, reader, escape, lone):
    """A JSON string escape can yield a surrogate that no output can write:
    its line is named, whichever reader reads it."""
    path = tmp_path / "log.jsonl"
    lines = ['{"a": 1}\n', '{"b": "x' + escape + '"}\n', '{"c": 2}\n']
    path.write_text("".join(lines), encoding="utf-8")
    records = []
    with pytest.raises(MalformedRecord) if lone else contextlib.nullcontext() as error:
        records.extend(getattr(jsonl, reader)(path))
    if lone:
        assert records == [(1, {"a": 1})] and error.value.line_no == 2
        assert error.value.reason == f"record in {path} holds a lone surrogate"
    else:
        assert records == [(n, json.loads(line)) for n, line in enumerate(lines, 1)]


def test_store_names_a_bad_record_by_its_line(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"digest": "a", "response": "x"}\n\n \n{"digest": 1, "response": "x"}\n',
                    encoding="utf-8")
    with pytest.raises(MalformedRecord) as error:
        TranscriptStore(path)
    assert error.value.line_no == 4 and "digest and response" in error.value.reason


class _Handler(BaseHTTPRequestHandler):
    """Records each request and replies as `behavior` says: "ok" (the
    payload), "empty_choices", "429" (with `retry_after`, sent as UTF-8),
    "429_once" (a 429, then "ok"), "404" or "500" (a "boom" body),
    "503_once" (a 503, then "ok"), or "redirect" (`redirect_status` to
    `location`)."""
    behavior = "ok"
    retry_after = "7"
    payload = {"choices": [{"message": {"content": "pong"}}]}
    location = ""
    redirect_status = 302
    seen = []  # POST bodies, as bytes
    auth = []  # the Authorization header of each request, None if absent

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).seen.append(self.rfile.read(length))
        if len(self.seen[-1]) == length:  # else the client gave up mid-body
            self.reply()

    def do_GET(self):
        self.reply()

    def reply(self):
        type(self).auth.append(self.headers.get("Authorization"))
        if self.behavior in ("429", "429_once"):
            if self.behavior == "429_once":
                type(self).behavior = "ok"
            self.send_response(429)
            self.send_header("Retry-After", self.retry_after.encode().decode("latin-1"))
            self.end_headers()
            return
        if self.behavior == "redirect":
            self.send_response(self.redirect_status)
            self.send_header("Location", self.location)
            self.end_headers()
            return
        if self.behavior == "503_once":
            type(self).behavior = "ok"
            status, data = 503, b"boom"
        elif self.behavior in ("404", "500"):
            status, data = int(self.behavior), b"boom"
        else:
            payload = {"choices": []} if self.behavior == "empty_choices" else self.payload
            status, data = 200, json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _RedirectTarget(_Handler):
    behavior = "ok"
    auth = []


@pytest.fixture
def serve():
    """start(handler) serves handler on a free loopback port and returns its URL."""
    servers = []

    def start(handler):
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}"

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def fake_server(serve):
    _Handler.seen, _Handler.auth, _RedirectTarget.auth = [], [], []
    _Handler.behavior = "ok"
    _Handler.retry_after = "7"
    _Handler.redirect_status = 302
    return serve(_Handler)


class TestHttp:
    def config(self, base):
        return EndpointConfig(base_url=base, model="m")

    def test_wire_shape_with_images(self, fake_server, tmp_path):
        img1 = tmp_path / "f0.png"
        img2 = tmp_path / "f1.png"
        img1.write_bytes(b"x")
        img2.write_bytes(b"y")
        req = GenerationRequest(messages=(Message(role="user", parts=(
            TextPart("look"), ImagePart(str(img1), 0), ImagePart(str(img2), 1))),))
        assert http_complete(self.config(fake_server), req) == "pong"
        body = json.loads(_Handler.seen[-1])
        content = body["messages"][0]["content"]
        assert [c["type"] for c in content] == ["text", "image_url", "image_url"]
        assert body["model"] == "m"
        assert body["max_tokens"] == req.max_new_tokens

    def test_429_surfaces_retry_after(self, fake_server):
        _Handler.behavior = "429"
        with pytest.raises(BackendUnavailable) as exc:
            http_complete(self.config(fake_server), simple_request())
        assert exc.value.retry_after == 7.0

    @pytest.mark.parametrize("header", ["Wed, 21 Oct 2015 07:28:00 GMT", "-1", "١٢"])
    def test_429_retry_after_not_in_seconds_is_ignored(self, fake_server, header):
        _Handler.behavior, _Handler.retry_after = "429", header
        with pytest.raises(BackendUnavailable) as exc:
            http_complete(self.config(fake_server), simple_request())
        assert exc.value.retry_after is None  # the engine backs off instead

    def test_a_huge_retry_after_waits_the_cap(self, fake_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        _Handler.behavior, _Handler.retry_after = "429_once", "9" * 20
        backend = HttpBackend(self.config(fake_server))
        assert complete_with_retry(backend, simple_request(), EngineConfig()) == "pong"
        assert sleeps == [120.0]

    def test_empty_choices(self, fake_server):
        _Handler.behavior = "empty_choices"
        with pytest.raises(ResponseEmpty):
            http_complete(self.config(fake_server), simple_request())

    def test_no_internal_retry(self, fake_server):
        _Handler.behavior = "429"
        backend = HttpBackend(self.config(fake_server))
        with pytest.raises(BackendUnavailable):
            backend.complete(simple_request())
        assert len(_Handler.seen) == 1

    def test_connection_refused(self):
        config = EndpointConfig(base_url="http://127.0.0.1:1", model="m")
        with pytest.raises(BackendUnavailable):
            http_complete(config, simple_request())

    def test_read_timeout(self, monkeypatch):
        monkeypatch.setattr("vtagent.backends.HTTP_TIMEOUT_S", 0.3)
        # the kernel completes the handshake into the backlog; nothing answers
        with socket.create_server(("127.0.0.1", 0)) as silent:
            config = self.config(f"http://127.0.0.1:{silent.getsockname()[1]}")
            with pytest.raises(BackendTimeout):
                http_complete(config, simple_request())

    def test_500_names_the_status(self, fake_server):
        _Handler.behavior = "500"
        with pytest.raises(BackendUnavailable, match="HTTP 500: boom"):
            http_complete(self.config(fake_server), simple_request())

    @pytest.mark.parametrize("payload", [[], {"choices": [{"message": {"content": 5}}]},
                                         {"choices": [{"message": {"content": "a \ud83d"}}]}],
                             ids=["list_body", "int_content", "lone_surrogate_content"])
    def test_malformed_200_body(self, fake_server, monkeypatch, payload):
        monkeypatch.setattr(_Handler, "payload", payload)
        with pytest.raises(BackendUnavailable, match="malformed response body"):
            http_complete(self.config(fake_server), simple_request())

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_a_redirect_fails_the_call(self, fake_server, serve, status):
        _Handler.behavior, _Handler.redirect_status = "redirect", status
        _Handler.location = serve(_RedirectTarget) + "/elsewhere"
        config = EndpointConfig(base_url=fake_server, model="m", api_key="k")
        with pytest.raises(BackendUnavailable, match=f"HTTP {status}"):
            http_complete(config, simple_request())
        assert _Handler.auth == ["Bearer k"]
        assert _RedirectTarget.auth == []

    def test_netrc_is_not_read(self, fake_server, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        config = EndpointConfig(base_url=fake_server, model="m", api_key="k")
        assert http_complete(config, simple_request()) == "pong"
        assert _Handler.auth == ["Bearer k"]

    def test_preflight_accepts_a_404(self, fake_server, serve):
        # as real endpoints answer GET /v1; a redirect is a reply too, and its
        # Location is never contacted
        _Handler.location = serve(_RedirectTarget) + "/elsewhere"
        args = cli.build_parser().parse_args(
            ["eval", "--manifest", "m.jsonl", "--backend", "http", "--api-base",
             fake_server + "/v1", "--api-key", "k"])
        for behavior in ("404", "redirect"):
            _Handler.behavior, _Handler.auth = behavior, []
            cli.preflight(cli.resolve_config(args))
            assert _Handler.auth == [None]  # one GET, which carries no key
        assert _RedirectTarget.auth == []

    @pytest.mark.parametrize("base_url, api_key, fault", [
        ("http://h/v1?api-version=1", None, "base_url 'http://h/v1?api-version=1' holds a query"),
        ("http://h/v1 x", None, "holds a space"),
        ("http://h/v1", "a\nb", "api_key holds a control"),
    ], ids=["base_query", "base_space", "key_lf"])
    def test_endpoint_config_rejects_a_bad_url_or_key(self, monkeypatch, base_url, api_key,
                                                      fault):
        connect = mock.Mock(side_effect=AssertionError("a socket was opened"))
        monkeypatch.setattr(socket, "create_connection", connect)
        with pytest.raises(ValueError, match=re.escape(fault)):
            EndpointConfig(base_url=base_url, model="m", api_key=api_key)
        connect.assert_not_called()

OK_BODY = json.dumps({"choices": [{"message": {"content": "pong"}}]}).encode()


class _RawServer:
    """Serves one reply per connection, in order, as raw bytes: reads the
    request's head and its Content-Length body into `requests`, writes the
    reply and closes."""

    def __init__(self, *replies: bytes):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.replies, self.requests = list(replies), []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for reply in self.replies:
            conn, _ = self.listener.accept()
            with conn, conn.makefile("rb") as reader:
                head = b""
                while (line := reader.readline()) not in (b"\r\n", b""):
                    head += line
                if not line:  # close()'s wake-up call
                    return
                length = re.search(rb"(?im)^content-length: *(\d+)", head)
                self.requests.append(head + b"\r\n" + reader.read(int(length[1]) if length else 0))
                conn.sendall(reply)

    def close(self):
        if self.thread.is_alive():  # still waiting for a connection
            socket.create_connection(self.listener.getsockname()).close()
        self.thread.join(timeout=5)
        self.listener.close()
        assert not self.thread.is_alive()


@pytest.fixture
def raw_server():
    """start(*replies) serves the replies on a free loopback port (_RawServer)."""
    servers = []

    def start(*replies):
        servers.append(_RawServer(*replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def reply_bytes(head: str, body: bytes = b"") -> bytes:
    return head.replace("\n", "\r\n").encode() + b"\r\n" + body


class TestHttpFraming:
    """The reply framings of RFC 9112 and the faults each can show."""

    def call(self, server, api_key=None):
        return http_complete(EndpointConfig(base_url=server.url + "/v1", model="m",
                                            api_key=api_key), simple_request())

    def test_the_request_head(self, raw_server):
        server = raw_server(reply_bytes(f"HTTP/1.1 200 OK\nContent-Length: {len(OK_BODY)}\n",
                                        OK_BODY))
        assert self.call(server, api_key="k") == "pong"
        head, _, body = server.requests[0].partition(b"\r\n\r\n")
        length = len(wire_body(EndpointConfig(base_url=server.url, model="m"), simple_request()))
        assert head.decode().split("\r\n") == [
            "POST /v1/chat/completions HTTP/1.1", f"Host: {server.url[7:]}",
            f"User-Agent: vtagent/{vtagent.__version__}", "Accept-Encoding: identity",
            "Connection: close", "Content-Type: application/json",
            f"Content-Length: {length}", "Authorization: Bearer k"]
        assert len(body) == length

    @pytest.mark.parametrize("reply", [
        reply_bytes("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n",
                    b"%x;ext=1\r\n%s\r\n%X\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
                    % (10, OK_BODY[:10], len(OK_BODY) - 10, OK_BODY[10:])),
        reply_bytes("HTTP/1.0 200 OK\nContent-Type: application/json\n", OK_BODY),
        reply_bytes("HTTP/1.1 100 Continue\n")
        + reply_bytes(f"HTTP/1.1 200 OK\ncontent-length: {len(OK_BODY)}\n", OK_BODY),
        reply_bytes(f"HTTP/1.1 200 OK\nContent-Length: {len(OK_BODY)}, {len(OK_BODY)}\n",
                    OK_BODY),
    ], ids=["chunked", "close_delimited", "100_continue", "repeated_length"])
    def test_reply_framings(self, raw_server, reply):
        assert self.call(raw_server(reply)) == "pong"

    @pytest.mark.parametrize("reply, fault", [
        (reply_bytes("HTTP/1.1 200 OK\nContent-Length: 100\n", OK_BODY), "cut short"),
        (reply_bytes("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"ff\r\n{}"),
         "cut short"),
        (reply_bytes("HTTP/1.1 200 OK\nX-Long: " + "a" * 70_000 + "\n"), "over 65536 bytes"),
        (reply_bytes("HTTP/1.1 200 OK\n" + "X-Many: 1\n" * 101), "more than 100 header"),
        (reply_bytes("HTTP/1.1 200 OK\nContent-Length: 2\nContent-Length: 3\n", b"{}"),
         "bad Content-Length"),
        (reply_bytes("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"0x2\r\n{}\r\n"),
         "bad chunk size"),
        (reply_bytes("HTTP/1.1 200 OK\nTransfer-Encoding: gzip, chunked\n"),
         "unsupported transfer coding"),
        (reply_bytes("HTTP/1.1 200 OK\n folded: 1\n"), "bad header line"),
        (b"ICY 200 OK\r\n\r\n", "bad status line"),
        (b"HTTP/1.1 200 OK\r\nContent-", "closed inside a header section"),
        (b"", "closed before a reply"),
    ], ids=["short_body", "short_chunk", "long_line", "many_fields", "two_lengths",
            "bad_chunk_size", "gzip_coding", "obs_fold", "bad_status", "cut_head", "no_reply"])
    def test_framing_faults(self, raw_server, reply, fault):
        with pytest.raises(BackendUnavailable, match=fault) as exc:
            self.call(raw_server(reply))
        assert not isinstance(exc.value, BackendTimeout)


@pytest.fixture
def proxy_env(monkeypatch):
    """set(**proxies) leaves only these proxy variables in the environment."""
    def set_proxies(**values):
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        for name, value in values.items():
            monkeypatch.setenv(name, value)
    return set_proxies


class TestProxies:
    def test_http_proxy_gets_the_absolute_form_and_the_key(self, raw_server, proxy_env):
        proxy = raw_server(reply_bytes(f"HTTP/1.1 200 OK\nContent-Length: {len(OK_BODY)}\n",
                                       OK_BODY))
        proxy_env(HTTP_PROXY=proxy.url.replace("//", "//us%3Aer:pw@"))
        config = EndpointConfig(base_url="http://api.invalid:8080/v1", model="m", api_key="k")
        assert http_complete(config, simple_request()) == "pong"
        head = proxy.requests[0].partition(b"\r\n\r\n")[0].decode().split("\r\n")
        assert head[0] == "POST http://api.invalid:8080/v1/chat/completions HTTP/1.1"
        assert "Host: api.invalid:8080" in head and "Authorization: Bearer k" in head
        assert "Proxy-Authorization: Basic " + base64.b64encode(b"us:er:pw").decode() in head

    def test_no_proxy_goes_direct(self, fake_server, raw_server, proxy_env):
        proxy = raw_server(b"")
        proxy_env(HTTP_PROXY=proxy.url, NO_PROXY="127.0.0.1")
        assert http_complete(EndpointConfig(base_url=fake_server, model="m"),
                             simple_request()) == "pong"
        assert proxy.requests == [] and len(_Handler.seen) == 1

    def test_https_proxy_is_asked_for_a_tunnel(self, raw_server, proxy_env):
        proxy = raw_server(reply_bytes("HTTP/1.1 403 Forbidden\nContent-Length: 0\n"))
        proxy_env(HTTPS_PROXY=proxy.url)
        config = EndpointConfig(base_url="https://api.invalid/v1", model="m", api_key="k")
        with pytest.raises(BackendUnavailable, match="CONNECT api.invalid:443: 403 Forbidden"):
            http_complete(config, simple_request())
        head = proxy.requests[0].decode()
        assert head == "CONNECT api.invalid:443 HTTP/1.1\r\nHost: api.invalid:443\r\n\r\n"


def test_no_module_imports_requests():
    """Every vtagent module imports without requests or urllib3."""
    code = ("import importlib, json, pkgutil, sys, vtagent\n"
            "names = [m.name for m in pkgutil.iter_modules(vtagent.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('vtagent.' + name)\n"
            "print(json.dumps([names, sorted({'requests', 'urllib3'} & set(sys.modules))]))\n")
    names, leaked = json.loads(subprocess.run([sys.executable, "-c", code], env=src_env(),
                                              capture_output=True, text=True,
                                              check=True).stdout)
    assert {"backends", "cli", "engine", "oracle"} <= set(names)
    assert leaked == []


def test_base64_image_mode(tmp_path):
    img = tmp_path / "f.png"
    img.write_bytes(b"\x89PNG")
    req = GenerationRequest(messages=(Message(role="user", parts=(
        TextPart("t"), ImagePart(str(img), 0))),))
    body = json.loads(wire_body(EndpointConfig(base_url="http://x", model="m"), req))
    url = body["messages"][0]["content"][1]["image_url"]["url"]
    assert url == "data:image/png;base64," + base64.b64encode(b"\x89PNG").decode("ascii")


def reference_payload(config, request):
    """The chat-completions payload as a dict, each image a base64 data URI."""
    def part(p):
        if isinstance(p, TextPart):
            return {"type": "text", "text": p.text}
        mime = {".png": "image/png", ".jpg": "image/jpeg"}[Path(p.path).suffix]
        data = base64.b64encode(Path(p.path).read_bytes()).decode("ascii")
        return {"type": "image_url", "image_url": {"url": f"data:{mime};base64,{data}"}}
    payload = {"model": config.model,
               "messages": [{"role": m.role, "content": [part(p) for p in m.parts]}
                            for m in request.messages],
               "max_tokens": request.max_new_tokens,
               "temperature": request.temperature}
    if request.seed is not None:
        payload["seed"] = request.seed
    return payload


def wire_body(config, request):
    """The joined stream, after checking its declared length against it."""
    length, chunks = _wire_stream(config, request)
    body = b"".join(chunks)
    assert length == len(body)
    return body


class TestWireBody:
    CASES = {
        "text_only": ("m", lambda imgs: simple_request("hello")),
        "messages_and_images": ("m", lambda imgs: GenerationRequest(messages=(
            Message("system", (TextPart("sys"),)),
            Message("user", (TextPart("look"), ImagePart(imgs[0], 0), ImagePart(imgs[1], 1))),
            Message("assistant", (TextPart("<action>select key frame: [1]</action>"),)),
            Message("user", (ImagePart(imgs[1], 1), TextPart("answer"), ImagePart(imgs[0], 0))),
        ), temperature=1.0, seed=7)),
        "escaped_text": ("m", lambda imgs: simple_request(
            'Qu\u00e9 dice "el cartel"?\n\tback\\slash \u4e2d\u6587 \U0001F600 </action>')),
        "non_ascii_model": ("mod\u00e8le-\u89c6\u89c9", lambda imgs: simple_request(seed=3)),
        "int_seed": ("m", lambda imgs: simple_request(seed=2**40)),
        "jpg_only": ("m", lambda imgs: GenerationRequest(messages=(
            Message("user", (ImagePart(imgs[1], 0),)),))),
        # frame sizes 768, 1000, 1001 and 0: each remainder mod 3, and empty
        "sizes_mod_3_and_empty": ("m", lambda imgs: GenerationRequest(messages=(
            Message("user", (TextPart("Frame 0:"), ImagePart(imgs[0], 0),
                             ImagePart(imgs[2], 1), ImagePart(imgs[3], 2),
                             TextPart("last"), ImagePart(imgs[4], 3))),))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_body_is_the_json_dump_of_the_payload(self, case, tmp_path):
        png, jpg = tmp_path / "f0.png", tmp_path / "f1.jpg"
        png.write_bytes(bytes(range(256)) * 3)
        jpg.write_bytes(b"\xff\xd8\xff" + b'"\\\n' * 50)
        imgs = [str(png), str(jpg)]
        for size in (1000, 1001, 0):
            imgs.append(str(tmp_path / f"s{size}.png"))
            Path(imgs[-1]).write_bytes(os.urandom(size))
        model, build = self.CASES[case]
        config = EndpointConfig(base_url="http://x", model=model)
        request = build(imgs)
        assert wire_body(config, request) == \
            json.dumps(reference_payload(config, request), allow_nan=False).encode()

    def test_frame_round_trips_through_the_server(self, fake_server, tmp_path):
        frame = tmp_path / "f0.png"
        frame.write_bytes(os.urandom(150_000))
        req = GenerationRequest(messages=(Message(role="user", parts=(
            TextPart("Frame 0:"), ImagePart(str(frame), 0))),))
        assert http_complete(EndpointConfig(base_url=fake_server, model="m"), req) == "pong"
        url = json.loads(_Handler.seen[-1])["messages"][0]["content"][1]["image_url"]["url"]
        head, _, data = url.partition(",")
        assert head == "data:image/png;base64"
        assert base64.b64decode(data, validate=True) == frame.read_bytes()

    def test_retry_resends_the_whole_body(self, fake_server, tmp_path):
        frames = [tmp_path / f"f{i}.png" for i in range(2)]
        for frame in frames:
            frame.write_bytes(os.urandom(100_000))
        config = EndpointConfig(base_url=fake_server, model="m")
        req = GenerationRequest(messages=(Message(role="user", parts=(
            TextPart("look"), *(ImagePart(str(f), i) for i, f in enumerate(frames)))),))
        _Handler.behavior = "503_once"
        assert complete_with_retry(HttpBackend(config), req, EngineConfig(max_attempts=2)) == "pong"
        assert _Handler.seen == [wire_body(config, req)] * 2

    def test_missing_frame_raises_before_any_connection(self, fake_server, tmp_path):
        req = GenerationRequest(messages=(Message(role="user", parts=(
            TextPart("look"), ImagePart(str(tmp_path / "gone.png"), 0))),))
        with pytest.raises(MissingFrameFile, match="gone.png"):
            http_complete(EndpointConfig(base_url=fake_server, model="m"), req)
        assert _Handler.seen == []

    @pytest.mark.parametrize("change", ["vanished", "resized"])
    def test_frame_changed_while_sending_is_not_transient(self, fake_server, tmp_path,
                                                          monkeypatch, change):
        frame = tmp_path / "f0.png"
        frame.write_bytes(os.urandom(1000))

        def stat_then_change(config, request):
            stream = _wire_stream(config, request)
            if change == "vanished":
                frame.unlink()
            else:
                frame.write_bytes(os.urandom(1001))
            return stream

        monkeypatch.setattr("vtagent.backends._wire_stream", stat_then_change)
        req = GenerationRequest(messages=(Message(role="user", parts=(
            TextPart("look"), ImagePart(str(frame), 0))),))
        with pytest.raises(VtagentError, match="f0.png") as exc:
            http_complete(EndpointConfig(base_url=fake_server, model="m"), req)
        assert not isinstance(exc.value, BackendUnavailable)


def test_frame_missing_after_load_exits_2_and_resume_continues(
        fake_server, manifest_factory, tmp_path, monkeypatch, capsys):
    manifest = manifest_factory(n_samples=3)
    path = write_manifest_file(manifest, tmp_path / "manifest.jsonl")
    frame = Path(manifest.samples[1].frames[0].source_path)
    load = cli._load_sampled_manifest

    def load_then_lose_a_frame(cfg, manifest_path):
        loaded = load(cfg, manifest_path)
        frame.rename(frame.with_suffix(".bak"))
        return loaded

    argv = ["eval", "--manifest", str(path), "--backend", "http", "--api-base", fake_server,
            "--parallelism", "1", "--max-attempts", "1", "--out-dir", str(tmp_path / "out")]
    log = tmp_path / "out" / "trajectories.jsonl"
    with monkeypatch.context() as m:
        m.setattr(cli, "_load_sampled_manifest", load_then_lose_a_frame)
        assert cli.main(argv) == 2
    assert f"frame file not found: {frame}" in capsys.readouterr().err
    assert [r["sample_id"] for r in map(json.loads, log.read_text().splitlines())] == ["q000"]
    # the stat failed before q001's connection opened
    assert not any(b"question 1?" in body for body in _Handler.seen)

    frame.with_suffix(".bak").rename(frame)
    _Handler.seen = []
    assert cli.main(argv + ["--resume"]) == 0
    assert [r["sample_id"] for r in map(json.loads, log.read_text().splitlines())] == \
        ["q000", "q001", "q002"]
    assert _Handler.seen and not any(b"question 0?" in body for body in _Handler.seen)


@pytest.fixture(scope="module")
def tls_cert(tmp_path_factory) -> Path:
    """A self-signed certificate for localhost and its key, in one file."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("no openssl to make a certificate with")
    pem = tmp_path_factory.mktemp("tls") / "localhost.pem"
    subprocess.run([openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt",
                    "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1", "-subj",
                    "/CN=localhost", "-addext", "subjectAltName=DNS:localhost",
                    "-keyout", pem, "-out", pem], check=True, capture_output=True)
    return pem


@pytest.fixture
def tls_server(tls_cert, fake_server):
    """fake_server's handler behind TLS with tls_cert, on a port of its own."""
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(tls_cert)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_port
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("host, trusted, fault", [
    ("localhost", True, None),
    ("localhost", False, "CERTIFICATE_VERIFY_FAILED"),
    ("127.0.0.1", True, "IP address mismatch"),
], ids=["trusted", "untrusted", "wrong_host"])
def test_https_verifies_the_certificate_and_host(tls_server, tls_cert, monkeypatch,
                                                  host, trusted, fault):
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    if trusted:
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert))
    else:
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    config = EndpointConfig(base_url=f"https://{host}:{tls_server}/v1", model="m",
                            api_key="k")
    if fault is None:
        assert http_complete(config, simple_request()) == "pong"
        assert _Handler.auth == ["Bearer k"]
    else:
        with pytest.raises(BackendUnavailable, match=fault):
            http_complete(config, simple_request())
        assert _Handler.auth == []


def _tunnel_once(listener: socket.socket, heads: list) -> None:
    """Serve one CONNECT on listener: record its head, answer 200 and relay
    bytes both ways until either side closes."""
    conn, _ = listener.accept()
    with conn:
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            head += conn.recv(1)
        heads.append(head.decode())
        port = int(head.split(b" ")[1].rpartition(b":")[2])
        with socket.create_connection(("127.0.0.1", port)) as upstream:
            conn.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            ends = {conn: upstream, upstream: conn}
            while True:
                for ready in select.select(list(ends), [], [], 5)[0]:
                    data = ready.recv(65536)
                    if not data:
                        return
                    ends[ready].sendall(data)


def test_https_through_a_connect_tunnel(tls_server, tls_cert, monkeypatch, proxy_env):
    monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        heads = []
        thread = threading.Thread(target=_tunnel_once, args=(listener, heads), daemon=True)
        thread.start()
        proxy_env(HTTPS_PROXY=f"127.0.0.1:{listener.getsockname()[1]}")
        config = EndpointConfig(base_url=f"https://localhost:{tls_server}/v1", model="m",
                                api_key="k")
        assert http_complete(config, simple_request()) == "pong"
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert heads == [f"CONNECT localhost:{tls_server} HTTP/1.1\r\n"
                     f"Host: localhost:{tls_server}\r\n\r\n"]
    assert _Handler.auth == ["Bearer k"]  # inside the tunnel, to the origin only
