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
It runs one or more jobs, each a set of samples, a unit function, a log and
a record check, through one pool of `parallelism` workers: `oracle` hands
it its episodes and its frame-wise queries together, so neither pass waits
for the other. A unit returns one record per sample, the record its log
holds, and the runner returns, per job, every sample's record, logged
earlier or new, in manifest order. A unit that raises BackendUnavailable
fails only its sample, whose record is then `{"sample_id", "error"}` in
every pipeline. Any other error ends every job: units already started
finish, and no other unit is begun.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .backends import (Backend, GenerationRequest, ImagePart, Message, TextPart,
                       request_digest)
from .data_model import DatasetManifest, FrameRef, Sample, uniform_indices
from .errors import (BackendUnavailable, CacheMiss, ConfigError, EmptySelection,
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
        except BackendUnavailable as e:
            time.sleep(BACKOFF_BASE_S * 2 ** attempt if e.retry_after is None else e.retry_after)
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


def run_episode(sample: Sample, backend: Backend, config: EngineConfig,
                anchor_prompt: Optional[tuple[Message, ...]] = None) -> Trajectory:
    """Anchor keyframes, then answer from them only. When no anchor reply is a
    usable selection, the fallback policy answers from uniformly spaced
    keyframes or directly from every frame, and the trajectory is flagged.

    anchor_prompt is build_anchor_prompt(sample), built here when not given;
    a caller that runs several episodes of one sample builds it once."""
    if anchor_prompt is None:
        anchor_prompt = build_anchor_prompt(sample)
    digests: list[str] = []
    frame_count = len(sample.frames)

    def anchored(turn: Turn) -> Optional[tuple[Turn, KeyframeSet]]:
        if isinstance(turn.action, SelectKeyframes):
            return turn, validate_keyframes(turn.action, frame_count, config.cap)
        return None

    anchor, attempts1, _ = ask(sample, backend, config, "anchor", anchor_prompt,
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
        "answer": traj.turn2.action.text,  # run_episode's turn2 is always an answer
        "used_fallback": traj.used_fallback,
        "attempts": [traj.attempts_turn1, traj.attempts_turn2],
        "digests": list(traj.transcript_digests),
    }


def missing_key(record: dict, *keys: str) -> Optional[str]:
    """run_units' fault for a record that lacks one of keys, else None."""
    return next((f"has no {key!r}" for key in keys if key not in record), None)


@dataclass(frozen=True)
class Job:
    """One pipeline's share of a `run_units` call: fn maps each sample to
    the record log_path holds for it, and check(record) names the fault of a
    logged record without an error, or returns None."""
    samples: Sequence[Sample]
    fn: Callable[[Sample], dict]
    log_path: str | Path
    check: Callable[[dict], Optional[str]] = lambda record: None


def _logged(job: Job) -> dict[str, dict]:
    """The records already in job.log_path, by sample_id. One that lacks a
    string sample_id, or one without an error whose fault check names (such
    as "has no 'line'"), raises MalformedRecord."""
    records = {}
    for line_no, r in read_log(job.log_path):
        fault = (missing_key(r, "sample_id")
                 or (None if isinstance(r["sample_id"], str) else "has a non-string sample_id")
                 or (None if "error" in r else job.check(r)))
        if fault:
            raise MalformedRecord(line_no, f"record in {job.log_path} {fault}")
        records[r["sample_id"]] = r
    return records


def _open_log(path: str | Path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "a", encoding="utf-8")


def run_units(jobs: Sequence[Job], parallelism: int) -> list[list[dict]]:
    """Map each job's fn over its samples not yet in its log, through one pool
    of `parallelism` workers.

    The units are submitted job by job, each job's in manifest order, so at
    parallelism 1 they run in that order, and a worker a job leaves idle
    takes the next job's units. A record is appended to its job's log and
    flushed as soon as it and every record before it in that log are done,
    so a kill loses only unfinished samples. A BackendUnavailable from fn
    makes the sample's record {"sample_id", "error"}. Any other exception
    from fn stops every job: units already started finish, no other unit
    begins, each log gets the records before its first unit not finished,
    and the first such exception is raised. Returns, per job, every
    sample's record, read from the log or new, in manifest order; a bad
    logged record raises MalformedRecord before any unit runs.
    """
    records = [_logged(job) for job in jobs]
    todo = [[s for s in job.samples if s.sample_id not in done]
            for job, done in zip(jobs, records)]
    failed = threading.Event()
    errors: list[BaseException] = []
    finished: queue.SimpleQueue = queue.SimpleQueue()

    def unit(j: int, i: int) -> None:
        # Workers take units in submission order, so a unit skipped once one
        # has failed lies after every started unit of its log: the log stops
        # before it, and --resume runs it.
        sample = todo[j][i]
        record = None
        try:
            if not failed.is_set():
                record = jobs[j].fn(sample)
        except BackendUnavailable as e:
            record = {"sample_id": sample.sample_id, "error": str(e)}
        except BaseException as e:  # kept, and raised by the caller once the pool is done
            errors.append(e)
            failed.set()
        finished.put((j, i, record))

    if any(todo):
        with ThreadPoolExecutor(max_workers=parallelism) as pool, ExitStack() as stack:
            logs = [stack.enter_context(_open_log(job.log_path)) if units else None
                    for job, units in zip(jobs, todo)]
            try:
                for j, units in enumerate(todo):
                    for i in range(len(units)):
                        pool.submit(unit, j, i)
                ready: list[dict[int, Optional[dict]]] = [{} for _ in jobs]
                heads = [0] * len(jobs)  # per job: its first unit not yet logged
                for _ in range(sum(map(len, todo))):
                    j, i, record = finished.get()
                    ready[j][i] = record
                    # a None record (failed or skipped) is never popped, so
                    # its log's head stops there
                    while ready[j].get(heads[j]) is not None:
                        record = ready[j].pop(heads[j])
                        records[j][todo[j][heads[j]].sample_id] = record
                        logs[j].write(json.dumps(record, ensure_ascii=False) + "\n")
                        logs[j].flush()
                        heads[j] += 1
            finally:
                failed.set()  # an error here (a log write, an interrupt) begins no more units
    if errors:
        raise errors[0]
    return [[logged[s.sample_id] for s in job.samples] for job, logged in zip(jobs, records)]


def episode_job(manifest: DatasetManifest, backend: Backend, config: EngineConfig,
                log_path: str | Path) -> Job:
    """One episode per sample of the manifest, each sample's record a
    trajectory, or an error once retries are spent. A rerun skips the
    sample_ids already logged; a logged record needs an error, or the string
    answer and the list of int keyframe_ids that scoring reads."""
    def check(r: dict) -> Optional[str]:
        if not isinstance(r.get("answer"), str):
            return "has no string 'answer'"
        ids = r.get("keyframe_ids")
        if not (isinstance(ids, list) and all(type(i) is int for i in ids)):
            return "has no list of ints 'keyframe_ids'"
        return None

    return Job(manifest.samples,
               lambda sample: trajectory_record(run_episode(sample, backend, config)),
               log_path, check)


def run_batch(manifest: DatasetManifest, backend: Backend, config: EngineConfig,
              log_path: str | Path) -> list[dict]:
    """`episode_job` alone through `run_units`: every sample's record in
    manifest order."""
    (records,) = run_units([episode_job(manifest, backend, config, log_path)],
                           config.parallelism)
    return records
