"""Loopback chat-completions stub: one process, stdlib only.

    python3 perfbench/stub.py --rules stub_rules.json

Prints ``port <n>`` once it listens on 127.0.0.1. Endpoints:

* ``GET <anything>``: preflight, answers 200.
* ``GET /_stats?reset=1``: counters of the current pipeline run as JSON,
  then a reset (counters, per-question reply state, seen images).
* ``POST .../chat/completions``: a deterministic reply built from a cheap
  scan of the body (no JSON parse): the request kind from its first bytes,
  the question from its last text part, and the images from their
  ``data:`` URLs. The reply follows the question's rule (see fixtures.py).

Counters: requests, served replies, connections, bytes received, images and
images already received in this run, service time per request, and every
request whose image count or size is not what the protocol implies.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HEAD = 4096
TAIL = 4096


def reply(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"role": "assistant",
                                                "content": text}}]}).encode()


def action(reasoning: str, act: str) -> str:
    return f"<reasoning>{reasoning}</reasoning>\n<action>{act}</action>"


class State:
    def __init__(self, rules: dict):
        self.rules = rules["questions"]
        self.latency_s = float(rules["latency_s"])
        self.frames = int(rules["frames"])
        self.cap = int(rules["cap"])
        self.b64_len = int(rules["image_b64_len"])
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.posts = self.served = self.connections = self.bytes = 0
        self.images = self.repeat_images = 0
        self.bad: list[str] = []
        self.log: list[list] = []   # [t0, t1, question, images, status]
        self.seen: set[bytes] = set()
        self.failed_once: set[tuple[str, str]] = set()
        self.counters: dict[tuple[str, str], int] = {}

    def snapshot(self) -> dict:
        return {"posts": self.posts, "served": self.served,
                "connections": self.connections, "bytes": self.bytes,
                "images": self.images, "repeat_images": self.repeat_images,
                "bad": self.bad[:20], "bad_count": len(self.bad), "log": self.log}

    def handle(self, body: bytes) -> tuple[int, dict, bytes, str, int]:
        """Decide the reply; returns status, headers, body, question, image count."""
        head, tail = body[:HEAD], body[-TAIL:]
        q_at = tail.rfind(b"Question: ")
        question = ""
        if q_at >= 0:
            question = tail[q_at + 10:tail.find(b'"', q_at)].decode("utf-8", "replace")
        if b'"assistant"' in head:
            kind = "answer"
        elif b"select key frame" in head:
            kind = "anchor"
        elif b"You are given" in head:
            kind = "direct"
        else:
            kind = "frame"

        keys, sizes = [], []
        pos = 0
        while True:
            at = body.find(b'"data:', pos)
            if at < 0:
                break
            comma = body.find(b",", at)
            end = body.find(b'"', comma)
            sizes.append(end - comma - 1)
            keys.append(body[max(comma + 1, end - 44):end])
            pos = end

        rule = self.rules.get(question)
        with self.lock:
            self.posts += 1
            self.bytes += len(body)
            self.images += len(keys)
            for k in keys:
                if k in self.seen:
                    self.repeat_images += 1
                else:
                    self.seen.add(k)
            if rule is None:
                self.bad.append(f"unknown question {question!r}")
                return 400, {}, b'{"error": "unknown question"}', question, len(keys)
            expected = {"anchor": {self.frames}, "direct": {self.frames}, "frame": {1},
                        "answer": {len(rule["select"]), min(self.cap, self.frames)}}[kind]
            if len(keys) not in expected:
                self.bad.append(f"{rule['sample_id']} {kind}: {len(keys)} images")
            if any(s != self.b64_len for s in sizes):
                self.bad.append(f"{rule['sample_id']} {kind}: image size {sizes}")
            fail = rule["fail"].get(kind)
            if fail and (question, kind) not in self.failed_once:
                self.failed_once.add((question, kind))
                headers = {"Retry-After": "0"} if fail == 429 else {}
                return fail, headers, b'{"error": "injected"}', question, len(keys)
            counter = "answer" if kind == "direct" else kind
            n = self.counters.get((question, counter), 0)
            self.counters[(question, counter)] = n + 1
            self.served += 1

        if kind == "anchor":
            if n < rule["anchor_bad"]:
                text = "<reasoning>The frames are too blurry to pick any.</reasoning>"
            else:
                ids = ", ".join(str(i) for i in rule["select"])
                text = action("The sign is readable in these frames.",
                              f"select key frame: [{ids}]")
        elif kind == "frame":
            index = int(head[head.find(b'"Frame ') + 7:].split(b":", 1)[0])
            ok = index in rule["evidence"]
            text = action("Reading the single frame.",
                          f"answer: {rule['gold'] if ok else rule['wrong']}")
        else:
            outcome = rule["pattern"][n % len(rule["pattern"])]
            answer = {"C": rule["gold"], "N": rule["near"], "W": rule["wrong"]}[outcome]
            text = action("The keyframes show the sign.", f"answer: {answer}")
        return 200, {}, reply(text), question, len(keys)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so a pooled client reuses connections
    server: "Server"

    def _count_connection(self) -> None:
        # counted on the first program request, so the stats queries are not
        if not getattr(self, "_counted", False):
            self._counted = True
            with self.server.state.lock:
                self.server.state.connections += 1

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: bytes, headers: dict) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in headers.items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def do_GET(self):
        state = self.server.state
        if self.path.startswith("/_stats"):
            with state.lock:
                body = json.dumps(state.snapshot()).encode()
                if "reset=1" in self.path:
                    state.reset()
        else:
            self._count_connection()
            body = b'{"ok": true}'
        self._send(200, body, {})

    def do_POST(self):
        t0 = time.monotonic()
        state = self.server.state
        self._count_connection()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, headers, out, question, images = state.handle(body)
        if status == 200 and state.latency_s:
            time.sleep(state.latency_s)
        with state.lock:
            # logged before the reply, so a stats query sent after the client
            # has its last reply always sees the entry
            state.log.append([t0, time.monotonic(), question, images, status])
        self._send(status, out, headers)


class Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, rules: dict):
        super().__init__(("127.0.0.1", 0), Handler)
        self.state = State(rules)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", required=True)
    args = parser.parse_args()
    with open(args.rules, encoding="utf-8") as fh:
        server = Server(json.load(fh))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
