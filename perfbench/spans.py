"""Span tracing around the program's public functions, and the per-layer
metrics derived from the spans of one traced round.

The tracer wraps, from outside the program, every public function of every
module in the ``vtagent`` package, every public method of its classes, and
``TranscriptStore.__init__`` (the store load). A name re-imported with
``from .x import y`` is wrapped in each importing module with the wrapper
of its origin, so ``curation.run_episode`` records an ``engine.run_episode``
span. ``uninstall`` restores every original object.

A span is (id, name, start, end, parent id, sample id, error, extra). Spans
are kept in memory; ``write`` saves them as JSONL when the run ends. A span
opened on a thread with no open span (a pool worker) is parented to the
innermost open span of the thread that installed the tracer, which is the
thread that submitted the work in this program. Self time is a span's
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

COMPLETE = {"backends.HttpBackend.complete": "http",
            "backends.ReplayBackend.complete": "replay",
            "backends.RecordingBackend.complete": "recording",
            "backends.ScriptedBackend.complete": "scripted",
            "backends.FunctionBackend.complete": "function"}
BUILD_PROMPT = ("engine.build_anchor_prompt", "engine.build_answer_prompt",
                "engine.build_direct_prompt")
MODEL_PIPELINES = ("eval", "oracle", "curate_sft", "curate_rl")

# name, unit, better
PER_LAYER = [
    ("data_model.load_manifest.s", "s", "lower"),
    ("data_model.load_manifest.count", "count", "lower"),
    ("data_model.load_manifest.frames_per_s", "1/s", "higher"),
    ("data_model.sample_frames.s", "s", "lower"),
    ("backends.request_digest.us", "us", "lower"),
    ("backends.request_digest.count", "count", "lower"),
    ("backends.request_digest.per_call", "ratio", "lower"),
    ("backends.transcript_store.load_s", "s", "lower"),
    ("backends.transcript_store.load_count", "count", "lower"),
    ("backends.transcript_store.get_us", "us", "lower"),
    ("backends.transcript_store.get_count", "count", "lower"),
    ("backends.transcript_store.record_us", "us", "lower"),
    ("backends.transcript_store.record_count", "count", "lower"),
    *[(f"backends.complete.{cls}.{stat}", unit, "lower")
      for cls in ("http", "replay", "recording")
      for stat, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("count", "count"))],
    *[(f"backends.inflight_mean.{p}", "ratio", "higher") for p in MODEL_PIPELINES],
    ("backends.http.client_overhead.p50_ms", "ms", "lower"),
    ("backends.http.client_overhead.p99_ms", "ms", "lower"),
    ("backends.http.client_overhead.count", "count", "lower"),
    ("backends.http.connections_per_call", "ratio", "lower"),
    ("backends.http.request_mb", "MB", "lower"),
    *[(f"backends.http.repeat_image_frac.{p}", "ratio", "lower") for p in MODEL_PIPELINES],
    ("engine.build_prompt.us", "us", "lower"),
    ("engine.build_prompt.count", "count", "lower"),
    ("engine.run_episode.p50_ms", "ms", "lower"),
    ("engine.run_episode.p99_ms", "ms", "lower"),
    ("engine.run_episode.count", "count", "lower"),
    ("engine.run_batch.self_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.backoff_s", "s", "lower"),
    ("engine.parse_retry_frac", "ratio", "lower"),
    ("engine.fallback_frac", "ratio", "lower"),
    ("grammar.parse_turn.us", "us", "lower"),
    ("grammar.parse_turn.count", "count", "lower"),
    ("grammar.parse_fail_frac", "ratio", "lower"),
    ("metrics.anls.us", "us", "lower"),
    ("metrics.anls.count", "count", "lower"),
    ("metrics.levenshtein.us", "us", "lower"),
    ("metrics.levenshtein.count", "count", "lower"),
    ("reporting.score_records.s", "s", "lower"),
    ("reporting.write_score_log.s", "s", "lower"),
    ("curation.episodes_per_sample.sft", "count", "lower"),
    ("curation.episodes_per_sample.rl", "count", "lower"),
    ("curation.self_s", "s", "lower"),
    ("curation.kept_frac", "ratio", "higher"),
    ("oracle.framewise_eval.p50_ms", "ms", "lower"),
    ("oracle.framewise_eval.count", "count", "lower"),
    ("oracle.calls_per_sample", "count", "lower"),
    ("grpo.grpo_step.ms", "ms", "lower"),
    ("grpo.grpo_step.count", "count", "lower"),
    ("grpo.grpo_objective_grad.us", "us", "lower"),
    ("grpo.grpo_objective_grad.count", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def _request_key(request) -> tuple[str, int]:
    """(question, image count): what the stub logs for the same request."""
    last = request.messages[-1].parts[-1]
    question = getattr(last, "text", "").removeprefix("Question: ")
    images = sum(1 for m in request.messages for p in m.parts if hasattr(p, "path"))
    return question, images


def _episode(result) -> dict:
    return {"calls": result.attempts_turn1 + result.attempts_turn2,
            "fallback": result.used_fallback}


# extra attributes recorded for some spans: fn(args, result) -> dict
EXTRA = {
    "data_model.load_manifest": lambda args, res: {
        "frames": sum(len(s.frames) for s in res.samples)} if res is not None else None,
    "engine.run_episode": lambda args, res: _episode(res) if res is not None else None,
    "backends.http_complete": lambda args, res: {"key": _request_key(args[1])},
}
EXTRA_METHODS = {("TranscriptStore", "__init__")}


class Tracer:
    def __init__(self, modules: list[types.ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer, extra = self, EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, sid = 0, None
            try:
                parent, sid = stack[-1] if stack else tracer._main[-1]
            except IndexError:
                pass
            for a in args[:2]:
                s = getattr(a, "sample_id", None)
                if isinstance(s, str):
                    sid = s
                    break
            span = next(tracer._ids)
            stack.append((span, sid))
            err, result = None, None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = type(e).__name__
                raise
            finally:
                t1 = time.monotonic()
                stack.pop()
                tracer.spans.append((span, name, t0, t1, parent, sid, err,
                                     extra(args, result) if extra else None))
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap everything; call from the thread that will run the pipelines."""
        self._main = self._stack()
        wrappers: dict = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("vtagent."):
                    if obj not in wrappers:
                        origin = obj.__module__.rsplit(".", 1)[-1]
                        wrappers[obj] = self._wrap(obj, f"{origin}.{obj.__name__}")
                    self._patch(mod, name, wrappers[obj])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if isinstance(meth, types.FunctionType) and (
                                not mname.startswith("_") or (name, mname) in EXTRA_METHODS):
                            self._patch(obj, mname,
                                        self._wrap(meth, f"{short}.{name}.{mname}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span, name, t0, t1, parent, sid, err, extra in self.spans:
                fh.write(json.dumps({"id": span, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "sample_id": sid, "error": err,
                                     "extra": extra}) + "\n")


def _p(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if q != 50 \
        else statistics.median(values)


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, t0), min(e, t1)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _match_stub(spans: list[tuple], log: list[list]) -> list[float]:
    """Client time minus stub service time, per request the stub logged.

    Both sides use CLOCK_MONOTONIC; each stub entry goes to the not yet
    matched client span of the same (question, images) that overlaps it most.
    """
    by_key = defaultdict(list)
    for s in spans:
        if s[7]:
            by_key[tuple(s[7]["key"])].append(s)
    used: set[int] = set()
    out = []
    for t0, t1, question, images, _status in log:
        best, best_overlap = None, 0.0
        for s in by_key.get((question, images), ()):
            overlap = min(s[3], t1) - max(s[2], t0)
            if s[0] not in used and overlap > best_overlap:
                best, best_overlap = s, overlap
        if best is not None:
            used.add(best[0])
            out.append((best[3] - best[2]) - (t1 - t0))
    return out


def layer_metrics(spans: list[tuple], runs: list, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``runs`` are the round's pipeline results, in the order the pipelines ran;
    each ``cli.main`` root span belongs to the run at the same position.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    root: dict[int, int] = {}
    for s in sorted(spans, key=lambda s: s[0]):
        if s[4] in by_id:
            children[s[4]].append(s)
            root[s[0]] = root[s[4]]
        else:
            root[s[0]] = s[0]
    roots = sorted((s for s in spans if s[4] not in by_id and s[1] == "cli.main"),
                   key=lambda s: s[2])
    pipeline_of_root = {s[0]: run.pipeline for s, run in zip(roots, runs)}
    run_of = {run.pipeline: run for run in runs}

    def pipeline(s) -> str:
        return pipeline_of_root.get(root[s[0]], "")

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def durs(name: str) -> list[float]:
        return [s[3] - s[2] for s in by_name.get(name, ())]

    def self_time(s) -> float:
        return (s[3] - s[2]) - _covered(s[2], s[3], [(c[2], c[3]) for c in children[s[0]]])

    top_calls = [s for name in COMPLETE for s in by_name.get(name, ())
                 if by_id.get(s[4], (0, ""))[1] not in COMPLETE]
    calls_in = defaultdict(list)
    for s in top_calls:
        calls_in[pipeline(s)].append(s)

    m: dict[str, float] = {}
    d = durs("data_model.load_manifest")
    frames = sum(s[7]["frames"] for s in by_name.get("data_model.load_manifest", ()) if s[7])
    m["data_model.load_manifest.s"] = sum(d)  # the round's total: one load is the eval
    m["data_model.load_manifest.count"] = len(d)
    m["data_model.load_manifest.frames_per_s"] = frames / sum(d) if d else 0.0
    per_root = defaultdict(float)
    for s in by_name.get("data_model.sample_frames", ()):
        per_root[root[s[0]]] += s[3] - s[2]
    m["data_model.sample_frames.s"] = _p(list(per_root.values()), 50)

    d = durs("backends.request_digest")
    m["backends.request_digest.us"] = _p(d, 50) * 1e6
    m["backends.request_digest.count"] = len(d)
    eval_digests = sum(1 for s in by_name.get("backends.request_digest", ())
                       if pipeline(s) == "eval")
    m["backends.request_digest.per_call"] = (eval_digests / len(calls_in["eval"])
                                             if calls_in["eval"] else 0.0)
    for key, name, scale in (("load_s", "__init__", 1), ("get_us", "get", 1e6),
                             ("record_us", "record", 1e6)):
        d = durs(f"backends.TranscriptStore.{name}")
        m[f"backends.transcript_store.{key}"] = _p(d, 50) * scale
        m[f"backends.transcript_store.{key.split('_')[0]}_count"] = len(d)
    for name, cls in COMPLETE.items():
        if cls in ("http", "replay", "recording"):
            d = durs(name)
            m[f"backends.complete.{cls}.p50_ms"] = _p(d, 50) * 1e3
            m[f"backends.complete.{cls}.p99_ms"] = _p(d, 99) * 1e3
            m[f"backends.complete.{cls}.count"] = len(d)
    for p in MODEL_PIPELINES:
        wall = run_of[p].time.raw if p in run_of else 0.0
        busy = sum(s[3] - s[2] for s in calls_in[p])
        m[f"backends.inflight_mean.{p}"] = busy / wall if wall else 0.0

    overheads = []
    posts = connections = nbytes = 0
    for run in runs:
        if run.stub is None:
            continue
        mine = [s for s in by_name.get("backends.http_complete", ()) if pipeline(s) == run.pipeline]
        overheads += _match_stub(mine, run.stub["log"])
        posts += run.stub["posts"]
        connections += run.stub["connections"]
        nbytes += run.stub["bytes"]
    m["backends.http.client_overhead.p50_ms"] = _p(overheads, 50) * 1e3
    m["backends.http.client_overhead.p99_ms"] = _p(overheads, 99) * 1e3
    m["backends.http.client_overhead.count"] = len(overheads)
    m["backends.http.connections_per_call"] = connections / posts if posts else 0.0
    m["backends.http.request_mb"] = nbytes / posts / 1e6 if posts else 0.0
    for p in MODEL_PIPELINES:
        st = run_of[p].stub if p in run_of else None
        m[f"backends.http.repeat_image_frac.{p}"] = (
            st["repeat_images"] / st["images"] if st and st["images"] else 0.0)

    d = [x for name in BUILD_PROMPT for x in durs(name)]
    m["engine.build_prompt.us"] = _p(d, 50) * 1e6
    m["engine.build_prompt.count"] = len(d)
    episodes = by_name.get("engine.run_episode", [])
    d = durs("engine.run_episode")
    m["engine.run_episode.p50_ms"] = _p(d, 50) * 1e3
    m["engine.run_episode.p99_ms"] = _p(d, 99) * 1e3
    m["engine.run_episode.count"] = len(d)
    m["engine.run_batch.self_s"] = sum(self_time(s) for s in by_name.get("engine.run_batch", ()))
    retries, backoff = 0, 0.0
    for s in by_name.get("engine.complete_with_retry", ()):
        inner = [c for c in children[s[0]] if c[1] in COMPLETE]
        retries += max(0, len(inner) - 1)
        backoff += (s[3] - s[2]) - sum(c[3] - c[2] for c in inner)
    m["engine.retries"] = retries
    m["engine.backoff_s"] = backoff
    done = [s[7] for s in episodes if s[7]]
    calls = sum(e["calls"] for e in done)
    m["engine.parse_retry_frac"] = (sum(e["calls"] - 2 for e in done) / calls) if calls else 0.0
    m["engine.fallback_frac"] = sum(e["fallback"] for e in done) / len(done) if done else 0.0

    parses = by_name.get("grammar.parse_turn", [])
    m["grammar.parse_turn.us"] = _p(durs("grammar.parse_turn"), 50) * 1e6
    m["grammar.parse_turn.count"] = len(parses)
    m["grammar.parse_fail_frac"] = (sum(1 for s in parses if s[6]) / len(parses)
                                    if parses else 0.0)
    for name in ("anls", "levenshtein"):
        d = durs(f"metrics.{name}")
        m[f"metrics.{name}.us"] = _p(d, 50) * 1e6
        m[f"metrics.{name}.count"] = len(d)
    m["reporting.score_records.s"] = _p(durs("reporting.score_records"), 50)
    m["reporting.write_score_log.s"] = _p(durs("reporting.write_score_log"), 50)

    for key, p in (("sft", "curate_sft"), ("rl", "curate_rl")):
        n = sum(1 for s in episodes if pipeline(s) == p)
        m[f"curation.episodes_per_sample.{key}"] = n / run_of[p].samples if p in run_of else 0.0
    m["curation.self_s"] = sum(self_time(s) for s in spans if s[1].startswith("curation."))
    cur = [run_of[p] for p in ("curate_sft", "curate_rl") if p in run_of]
    m["curation.kept_frac"] = (sum(r.kept for r in cur) / sum(r.samples for r in cur)
                               if cur else 0.0)
    d = durs("oracle.framewise_eval")
    m["oracle.framewise_eval.p50_ms"] = _p(d, 50) * 1e3
    m["oracle.framewise_eval.count"] = len(d)
    m["oracle.calls_per_sample"] = (len(calls_in["oracle"]) / run_of["oracle"].samples
                                    if "oracle" in run_of else 0.0)
    d = durs("grpo.grpo_step")
    m["grpo.grpo_step.ms"] = _p(d, 50) * 1e3
    m["grpo.grpo_step.count"] = len(d)
    d = durs("grpo.grpo_objective_grad")
    m["grpo.grpo_objective_grad.us"] = _p(d, 50) * 1e6
    m["grpo.grpo_objective_grad.count"] = len(d)
    m["cli.output_bytes"] = sum(r.out_bytes for r in runs)
    m["cli.self_s"] = sum(self_time(s) for s in spans if s[1].startswith("cli."))
    m["trace.overhead_frac"] = overhead_frac
    m["trace.spans"] = len(spans)
    return m
