import hashlib
import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtagent.backends import (EndpointConfig, GenerationRequest, HttpBackend,
                              ImagePart, Message, RecordingBackend, ReplayBackend,
                              ScriptedBackend, TextPart, TranscriptStore,
                              canonicalize_request, http_complete, request_digest)
from vtagent.errors import BackendUnavailable, ResponseEmpty


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


class TestScripted:
    def test_queue_order(self):
        backend = ScriptedBackend(["A", "B"])
        assert backend.complete(simple_request()) == "A"
        assert backend.complete(simple_request()) == "B"

    def test_exhausted(self):
        backend = ScriptedBackend([])
        with pytest.raises(BackendUnavailable):
            backend.complete(simple_request())


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
        store.record(simple_request("a"), "ra")
        store.record(simple_request("b"), "rb")
        assert len(store) == 2

    def test_same_digest_newest_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = TranscriptStore(path)
        store.record(simple_request(), "old")
        store.record(simple_request(), "new")
        reloaded = TranscriptStore(path)
        assert reloaded.get(request_digest(simple_request())).response_text == "new"


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        if self.behavior == "429":
            self.send_response(429)
            self.send_header("Retry-After", "7")
            self.end_headers()
            return
        if self.behavior == "empty_choices":
            payload = {"choices": []}
        else:
            payload = {"choices": [{"message": {"content": "pong"}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.seen = []
    _Handler.behavior = "ok"
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


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
        body = _Handler.seen[-1]
        content = body["messages"][0]["content"]
        assert [c["type"] for c in content] == ["text", "image_url", "image_url"]
        assert body["model"] == "m"
        assert body["max_tokens"] == req.max_new_tokens

    def test_429_surfaces_retry_after(self, fake_server):
        _Handler.behavior = "429"
        with pytest.raises(BackendUnavailable) as exc:
            http_complete(self.config(fake_server), simple_request())
        assert exc.value.retry_after == 7.0

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
        config = EndpointConfig(base_url="http://127.0.0.1:1", model="m", timeout_s=2)
        with pytest.raises(BackendUnavailable):
            http_complete(config, simple_request())


def test_base64_image_mode(tmp_path):
    from vtagent.backends import _wire_payload
    img = tmp_path / "f.png"
    img.write_bytes(b"\x89PNG")
    req = GenerationRequest(messages=(Message(role="user", parts=(
        TextPart("t"), ImagePart(str(img), 0))),))
    payload = _wire_payload(EndpointConfig(base_url="http://x", model="m"), req)
    url = payload["messages"][0]["content"][1]["image_url"]["url"]
    assert url.startswith("data:image/png;base64,")
