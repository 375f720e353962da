"""Two-turn locate-and-focus episode runner.

Turn 1 shows every presented frame (labeled "Frame {i}:") and asks for a
keyframe selection; turn 2 carries turn 1 back as an assistant message and
shows only the selected keyframes. Persistent anchoring failure falls back to
uniformly spaced keyframes (or direct answering), flagged on the trajectory.

`run_units` is the work-unit runner of every pipeline that calls the model.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .backends import Backend, GenerationRequest, ImagePart, Message, TextPart, request_digest
from .data_model import DatasetManifest, FrameRef, Sample, uniform_indices
from .errors import (BackendTimeout, BackendUnavailable, ConfigError, EmptySelection,
                     MissingActionBlock, ResponseEmpty, UnparsableAction)
from .grammar import (Answer, KeyframeSet, SelectKeyframes, Turn, parse_turn,
                      render_turn, validate_keyframes)

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


@dataclass(frozen=True)
class EngineConfig:
    keyframe_cap: int = 8
    max_attempts: int = 5
    parallelism: int = 1
    fallback_policy: str = "uniform"  # "uniform" | "direct"
    temperature: float = 0.0
    max_new_tokens: int = 512
    seed: Optional[int] = None
    backoff_base_s: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.fallback_policy not in ("uniform", "direct"):
            raise ConfigError(f"unknown fallback policy {self.fallback_policy!r}")


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


def derive_seed(base: Optional[int], sample_id: str, stage: str, attempt: int) -> Optional[int]:
    """Per-call seed, stable across runs so replay digests line up."""
    if base is None:
        return None
    key = f"{base}:{sample_id}:{stage}:{attempt}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def frames_turn(instruction: str, frames: Iterable[FrameRef], question: str) -> Message:
    """User turn: the instruction, each frame as a "Frame {i}:" label followed by
    its image, then the question."""
    parts = [TextPart(instruction)]
    for frame in frames:
        parts.append(TextPart(f"Frame {frame.index}:"))
        parts.append(ImagePart(path=frame.source_path, index=frame.index))
    parts.append(TextPart(f"Question: {question}"))
    return Message(role="user", parts=tuple(parts))


def build_anchor_prompt(sample: Sample, config: EngineConfig) -> tuple[Message, ...]:
    return (frames_turn(ANCHOR_TEMPLATE.format(n=len(sample.frames)), sample.frames,
                        sample.question),)


def build_answer_prompt(sample: Sample, turn1: Turn, keyframes: KeyframeSet,
                        config: EngineConfig) -> tuple[Message, ...]:
    assistant = Message(role="assistant", parts=(TextPart(render_turn(turn1)),))
    by_index = {f.index: f for f in sample.frames}
    keyframe_refs = [by_index[fid] for fid in keyframes.ids]
    return (assistant, frames_turn(ANSWER_TEMPLATE, keyframe_refs, sample.question))


def build_direct_prompt(sample: Sample, config: EngineConfig) -> tuple[Message, ...]:
    return (frames_turn(DIRECT_TEMPLATE.format(n=len(sample.frames)), sample.frames,
                        sample.question),)


def complete_with_retry(backend: Backend, request: GenerationRequest,
                        config: EngineConfig) -> str:
    """Exponential backoff on transient backend errors; parse errors are not retried here."""
    last: Exception | None = None
    for attempt in range(config.max_attempts):
        try:
            return backend.complete(request)
        except (BackendUnavailable, BackendTimeout, ResponseEmpty) as e:
            last = e
            if attempt + 1 < config.max_attempts:
                time.sleep(config.backoff_base_s * (2 ** attempt))
    raise last


def run_episode(sample: Sample, backend: Backend, config: EngineConfig) -> Trajectory:
    digests: list[str] = []
    frame_count = len(sample.frames)

    def call(messages: tuple[Message, ...], stage: str, attempt: int) -> str:
        req = GenerationRequest(
            messages=messages,
            max_new_tokens=config.max_new_tokens,
            temperature=config.temperature,
            seed=derive_seed(config.seed, sample.sample_id, stage, attempt),
        )
        digests.append(request_digest(req))
        return complete_with_retry(backend, req, config)

    # turn 1: keyframe anchoring
    turn1: Optional[Turn] = None
    keyframes: Optional[KeyframeSet] = None
    attempts1 = 0
    anchor = build_anchor_prompt(sample, config)
    for attempt in range(config.max_attempts):
        attempts1 = attempt + 1
        raw = call(anchor, "anchor", attempt)
        try:
            t = parse_turn(raw)
            if not isinstance(t.action, SelectKeyframes):
                raise UnparsableAction(render_turn(t), raw=raw)
            keyframes = validate_keyframes(t.action, frame_count, config.keyframe_cap)
            turn1 = t
            break
        except (MissingActionBlock, UnparsableAction, EmptySelection):
            continue

    used_fallback = turn1 is None
    if used_fallback:
        if config.fallback_policy == "direct":
            return _direct_answer_episode(sample, backend, config, call, digests, attempts1)
        ids = tuple(uniform_indices(frame_count, config.keyframe_cap))
        keyframes = KeyframeSet(ids=ids)
        turn1 = Turn(reasoning="", action=SelectKeyframes(frame_ids=ids), raw="")

    # turn 2: keyframe-conditioned answering
    answer_prompt = build_answer_prompt(sample, turn1, keyframes, config)
    turn2, attempts2, answered = _answer_loop(answer_prompt, call, "answer", config)
    return Trajectory(
        sample_id=sample.sample_id, turn1=turn1, keyframes=keyframes, turn2=turn2,
        used_fallback=used_fallback or not answered,
        attempts_turn1=attempts1, attempts_turn2=attempts2,
        transcript_digests=tuple(digests),
    )


def _answer_loop(messages, call, stage: str, config: EngineConfig) -> tuple[Turn, int, bool]:
    attempts = 0
    last_raw = ""
    for attempt in range(config.max_attempts):
        attempts = attempt + 1
        last_raw = call(messages, stage, attempt)
        try:
            t = parse_turn(last_raw)
            if isinstance(t.action, Answer):
                return t, attempts, True
        except (MissingActionBlock, UnparsableAction):
            pass
    return Turn(reasoning="", action=Answer(text=""), raw=last_raw), attempts, False


def _direct_answer_episode(sample, backend, config, call, digests, attempts1) -> Trajectory:
    prompt = build_direct_prompt(sample, config)
    turn2, attempts2, _ = _answer_loop(prompt, call, "direct", config)
    all_ids = tuple(f.index for f in sample.frames)
    return Trajectory(
        sample_id=sample.sample_id,
        turn1=Turn(reasoning="", action=SelectKeyframes(frame_ids=all_ids), raw=""),
        keyframes=KeyframeSet(ids=all_ids),
        turn2=turn2, used_fallback=True,
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


def read_log(path: str | Path) -> list[dict]:
    records = []
    path = Path(path)
    if not path.exists():
        return records
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records


def run_units(samples: Sequence[Sample], fn: Callable[[Sample], tuple[T, Optional[dict]]],
              parallelism: int, log_path: str | Path | None = None,
              ) -> tuple[list[dict], list[T]]:
    """Map fn over the samples not yet in log_path, `parallelism` at a time.

    fn returns (result, record); a record that is not None is appended to
    log_path and flushed as soon as it and every record before it in manifest
    order are done, so a kill loses only unfinished samples. An exception
    from fn stops the run after the records of the samples before it.
    Returns the records already in the log and the new results in manifest
    order.
    """
    prior = read_log(log_path) if log_path is not None else []
    done = {r["sample_id"] for r in prior}
    todo = [s for s in samples if s.sample_id not in done]
    results: list[T] = []
    if not todo:
        return prior, results
    if log_path is not None:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=parallelism) as pool, \
            (open(log_path, "a", encoding="utf-8") if log_path is not None
             else nullcontext()) as log:
        # pool.map yields in submission order, so the log stays in manifest order
        for result, record in pool.map(fn, todo):
            results.append(result)
            if log is not None and record is not None:
                log.write(json.dumps(record, ensure_ascii=False) + "\n")
                log.flush()
    return prior, results


def run_batch(manifest: DatasetManifest, backend: Backend, config: EngineConfig,
              log_path: str | Path) -> list[dict]:
    """Run episodes over the manifest through `run_units`.

    Each record (a trajectory, or an error once retries are spent) is
    appended to the log as soon as it and every earlier sample are done; a
    rerun skips the sample_ids already logged. Returns the full record list
    (prior + new) in manifest order.
    """
    def one(sample: Sample) -> tuple[dict, dict]:
        try:
            rec = trajectory_record(run_episode(sample, backend, config))
        except (BackendUnavailable, BackendTimeout, ResponseEmpty) as e:
            rec = {"sample_id": sample.sample_id, "error": str(e)}
        return rec, rec

    prior, new = run_units(manifest.samples, one, config.parallelism, log_path)
    merged = {r["sample_id"]: r for r in prior + new}
    return [merged[s.sample_id] for s in manifest.samples if s.sample_id in merged]
