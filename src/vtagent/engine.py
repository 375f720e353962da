"""Two-turn locate-and-focus episode runner.

Turn 1 shows every presented frame (labeled "Frame {i}:") and asks for a
keyframe selection; turn 2 carries turn 1 back as an assistant message and
shows only the selected keyframes. Persistent anchoring failure falls back to
uniformly spaced keyframes (or direct answering), flagged on the trajectory.

Every model call in the harness goes through `ask`, which builds the
request, records its digest, calls the backend and parses and accepts the
reply, asking again up to a given number of replies. An episode turn (anchor,
answer or direct) allows `max_attempts` replies; the oracle's frame query is a
one-reply turn of the same loop. Each call makes up to `max_attempts`
transport tries, waiting out a transient error's Retry-After when the backend
sent one and exponential backoff otherwise; a replay cache miss or an
exhausted script fails at once.

`run_units` is the work-unit runner of every pipeline that calls the model.
A unit returns one record per sample, the record its log holds, and the
runner returns every sample's record, logged earlier or new, in manifest
order. A unit that raises ends the run: samples already started finish,
and no other sample is begun.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .backends import (Backend, GenerationRequest, ImagePart, Message, TextPart,
                       request_digest)
from .data_model import DatasetManifest, FrameRef, Sample, uniform_indices
from .errors import (TRANSIENT_ERRORS, CacheMiss, ConfigError, EmptySelection,
                     MalformedRecord, MissingActionBlock, UnparsableAction)
from .grammar import (Answer, KeyframeSet, SelectKeyframes, Turn, parse_turn,
                      render_turn, validate_keyframes)
from .jsonl import read_log

ANCHOR_TEMPLATE = (
    "You are given {n} video frames, each labeled with its index, and a question "
    "about text visible in the video. First write your analysis inside "
    "<reasoning></reasoning>. Then output exactly one action inside "
    "<action></action> choosing the frames whose visible text is needed to answer, "
    "in the form: select key frame: [id1, id2, ...]"
)

ANSWER_TEMPLATE = (
    "These are the keyframes you selected, labeled with their indices. Read the "
    "text in them carefully and answer the question. Write your analysis inside "
    "<reasoning></reasoning>, then output exactly one action inside "
    "<action></action> in the form: answer: <your answer>"
)

DIRECT_TEMPLATE = (
    "You are given {n} video frames, each labeled with its index, and a question "
    "about text visible in the video. Write your analysis inside "
    "<reasoning></reasoning>, then output exactly one action inside "
    "<action></action> in the form: answer: <your answer>"
)

T = TypeVar("T")

FALLBACK_POLICIES = ("uniform", "direct")
BACKOFF_BASE_S = 0.1  # a transport retry without Retry-After sleeps this x 2 ** try


@dataclass(frozen=True)
class EngineConfig:
    """The engine's settings under the names a user types, checked when the
    config is built: a bad value raises ConfigError before any work starts."""
    cap: int = 8
    parallelism: int = 1
    max_attempts: int = 5
    seed: int = 0
    temperature: float = 0.0
    fallback: str = "uniform"  # one of FALLBACK_POLICIES

    def __post_init__(self):
        for name in ("cap", "parallelism", "max_attempts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"invalid configuration value: {name} must be >= 1, "
                                  f"got {getattr(self, name)}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"invalid configuration value: temperature must be finite "
                              f"and >= 0, got {self.temperature!r}")
        if self.fallback not in FALLBACK_POLICIES:
            raise ConfigError(f"invalid configuration value: fallback must be one of "
                              f"{FALLBACK_POLICIES}, got {self.fallback!r}")


@dataclass(frozen=True)
class Trajectory:
    sample_id: str
    turn1: Turn
    keyframes: KeyframeSet
    turn2: Turn
    used_fallback: bool
    attempts_turn1: int
    attempts_turn2: int
    transcript_digests: tuple[str, ...] = ()


def derive_seed(base: int, sample_id: str, stage: str, attempt: int) -> int:
    """Per-call seed, stable across runs so replay digests line up."""
    key = f"{base}:{sample_id}:{stage}:{attempt}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def _frame_parts(frame: FrameRef) -> tuple[TextPart, ImagePart]:
    """The frame's "Frame {i}:" label and image, built once per FrameRef."""
    parts = frame.prompt_parts
    if parts is None:
        parts = (TextPart(f"Frame {frame.index}:"),
                 ImagePart(path=frame.source_path, index=frame.index))
        object.__setattr__(frame, "prompt_parts", parts)
    return parts


def frames_turn(instruction: str, frames: Iterable[FrameRef], question: str) -> Message:
    """User turn: the instruction, each frame as a "Frame {i}:" label followed by
    its image, then the question."""
    parts = [TextPart(instruction)]
    for frame in frames:
        parts += _frame_parts(frame)
    parts.append(TextPart(f"Question: {question}"))
    return Message(role="user", parts=tuple(parts))


def build_anchor_prompt(sample: Sample) -> tuple[Message, ...]:
    return (frames_turn(ANCHOR_TEMPLATE.format(n=len(sample.frames)), sample.frames,
                        sample.question),)


def build_answer_prompt(sample: Sample, turn1: Turn,
                        keyframes: KeyframeSet) -> tuple[Message, ...]:
    assistant = Message(role="assistant", parts=(TextPart(render_turn(turn1)),))
    # Sample guarantees that frame i sits at position i
    keyframe_refs = [sample.frames[fid] for fid in keyframes.ids]
    return (assistant, frames_turn(ANSWER_TEMPLATE, keyframe_refs, sample.question))


def build_direct_prompt(sample: Sample) -> tuple[Message, ...]:
    return (frames_turn(DIRECT_TEMPLATE.format(n=len(sample.frames)), sample.frames,
                        sample.question),)


def complete_with_retry(backend: Backend, request: GenerationRequest,
                        config: EngineConfig) -> str:
    """Up to `max_attempts` tries of one call. After a transient error it sleeps
    the error's Retry-After when the backend sent one, else exponential
    backoff; a CacheMiss (replay miss, exhausted script) is raised at once.
    Parse errors are not seen here."""
    for attempt in range(config.max_attempts - 1):
        try:
            return backend.complete(request)
        except CacheMiss:
            raise
        except TRANSIENT_ERRORS as e:
            retry_after = getattr(e, "retry_after", None)
            time.sleep(BACKOFF_BASE_S * 2 ** attempt if retry_after is None else retry_after)
    return backend.complete(request)


def _answered(turn: Turn) -> Optional[Turn]:
    return turn if isinstance(turn.action, Answer) else None


def ask(sample: Sample, backend: Backend, config: EngineConfig, stage: str,
        messages: tuple[Message, ...], replies: int, digests: list[str],
        accept: Callable[[Turn], Optional[T]] = _answered) -> tuple[Optional[T], int, str]:
    """Ask, parse and accept up to `replies` times, appending each request's
    digest to digests; by default an answer turn is accepted. Each call still
    gets `max_attempts` transport tries, whatever `replies` is. Returns the
    accepted value (None when every reply was rejected), the calls made and
    the last raw reply."""
    raw = ""
    for attempt in range(replies):
        seed = derive_seed(config.seed, sample.sample_id, stage, attempt)
        request = GenerationRequest(messages=messages, temperature=config.temperature, seed=seed)
        digests.append(request_digest(request))
        raw = complete_with_retry(backend, request, config)
        try:
            value = accept(parse_turn(raw))
        except (MissingActionBlock, UnparsableAction, EmptySelection):
            continue
        if value is not None:
            return value, attempt + 1, raw
    return None, replies, raw


def run_episode(sample: Sample, backend: Backend, config: EngineConfig) -> Trajectory:
    """Anchor keyframes, then answer from them only. When no anchor reply is a
    usable selection, the fallback policy answers from uniformly spaced
    keyframes or directly from every frame, and the trajectory is flagged."""
    digests: list[str] = []
    frame_count = len(sample.frames)

    def anchored(turn: Turn) -> Optional[tuple[Turn, KeyframeSet]]:
        if isinstance(turn.action, SelectKeyframes):
            return turn, validate_keyframes(turn.action, frame_count, config.cap)
        return None

    anchor, attempts1, _ = ask(sample, backend, config, "anchor", build_anchor_prompt(sample),
                               config.max_attempts, digests, anchored)
    direct = anchor is None and config.fallback == "direct"
    if anchor is not None:
        turn1, keyframes = anchor
    else:
        ids = (tuple(f.index for f in sample.frames) if direct
               else tuple(uniform_indices(frame_count, config.cap)))
        keyframes = KeyframeSet(ids=ids)
        turn1 = Turn(reasoning="", action=SelectKeyframes(frame_ids=ids), raw="")
    if direct:
        stage, prompt = "direct", build_direct_prompt(sample)
    else:
        stage, prompt = "answer", build_answer_prompt(sample, turn1, keyframes)
    turn2, attempts2, raw = ask(sample, backend, config, stage, prompt, config.max_attempts,
                                digests)
    return Trajectory(
        sample_id=sample.sample_id, turn1=turn1, keyframes=keyframes,
        turn2=turn2 or Turn(reasoning="", action=Answer(text=""), raw=raw),
        used_fallback=anchor is None or turn2 is None,
        attempts_turn1=attempts1, attempts_turn2=attempts2,
        transcript_digests=tuple(digests),
    )


def trajectory_record(traj: Trajectory) -> dict:
    return {
        "sample_id": traj.sample_id,
        "turn1_raw": traj.turn1.raw,
        "keyframe_ids": list(traj.keyframes.ids),
        "dropped": [[fid, reason] for fid, reason in traj.keyframes.dropped],
        "turn2_raw": traj.turn2.raw,
        "answer": traj.turn2.action.text if isinstance(traj.turn2.action, Answer) else "",
        "used_fallback": traj.used_fallback,
        "attempts": [traj.attempts_turn1, traj.attempts_turn2],
        "digests": list(traj.transcript_digests),
    }


def missing_key(record: dict, *keys: str) -> Optional[str]:
    """run_units' fault for a record that lacks one of keys, else None."""
    return next((f"has no {key!r}" for key in keys if key not in record), None)


def run_units(samples: Sequence[Sample], fn: Callable[[Sample], dict], parallelism: int,
              log_path: str | Path,
              check: Callable[[dict], Optional[str]] = lambda record: None) -> list[dict]:
    """Map fn over the samples not yet in log_path, `parallelism` at a time.

    fn returns the sample's record, which is appended to log_path and flushed
    as soon as it and every record before it in manifest order are done, so a
    kill loses only unfinished samples. An exception from fn stops the run
    after the records of the samples before it, and no sample that has not
    started by then is begun. Returns every sample's record, read from the
    log or new, in manifest order. A logged record that lacks a string
    sample_id, or whose fault check(record) names (such as "has no 'line'"),
    raises MalformedRecord.
    """
    records = {}
    # a bad record is named by its number among the records, which is its
    # line number in a log that run_units wrote
    for line_no, r in enumerate(read_log(log_path), start=1):
        fault = (missing_key(r, "sample_id")
                 or (None if isinstance(r["sample_id"], str) else "has a non-string sample_id")
                 or check(r))
        if fault:
            raise MalformedRecord(line_no, f"record in {log_path} {fault}")
        records[r["sample_id"]] = r
    todo = [s for s in samples if s.sample_id not in records]
    failed = threading.Event()

    def unit(sample: Sample) -> Optional[dict]:
        # Workers take samples in submission order, which is manifest order,
        # so a sample not yet started when a unit fails lies after the failing
        # one. The loop below stops at the failing sample and never reads
        # such a sample's result: skipping it loses no record.
        if failed.is_set():
            return None
        try:
            return fn(sample)
        except BaseException:
            failed.set()
            raise

    if todo:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(max_workers=parallelism) as pool, \
                open(log_path, "a", encoding="utf-8") as log:
            # pool.map yields in submission order, so the log stays in manifest order
            for sample, record in zip(todo, pool.map(unit, todo)):
                records[sample.sample_id] = record
                log.write(json.dumps(record, ensure_ascii=False) + "\n")
                log.flush()
    return [records[s.sample_id] for s in samples]


def run_batch(manifest: DatasetManifest, backend: Backend, config: EngineConfig,
              log_path: str | Path) -> list[dict]:
    """Run episodes over the manifest through `run_units` and return every
    sample's record in manifest order: a trajectory, or an error once retries
    are spent. A rerun skips the sample_ids already logged; a logged record
    needs an error, or the string answer and the list of int keyframe_ids
    that scoring reads."""
    def one(sample: Sample) -> dict:
        try:
            return trajectory_record(run_episode(sample, backend, config))
        except TRANSIENT_ERRORS as e:
            return {"sample_id": sample.sample_id, "error": str(e)}

    def check(r: dict) -> Optional[str]:
        if "error" in r:
            return None
        if not isinstance(r.get("answer"), str):
            return "has no string 'answer'"
        ids = r.get("keyframe_ids")
        if not (isinstance(ids, list) and all(type(i) is int for i in ids)):
            return "has no list of ints 'keyframe_ids'"
        return None

    return run_units(manifest.samples, one, config.parallelism, log_path, check)
