"""Dataset representation and ingestion: manifests, frame sub-sampling, dedup.

Videos arrive as pre-extracted frame image files listed in a JSONL manifest;
no decoding happens here. Loaded objects are immutable and safe to share
across worker threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

from .errors import DuplicateSampleId, MalformedRecord, MissingFrameFile
from .jsonl import _decode_line, write_lines


@dataclass(frozen=True, slots=True)
class FrameRef:
    index: int
    source_path: str
    timestamp_s: Optional[float] = None
    # the engine's label and image parts for this frame, made on first use
    # and shared by every sample that shares the FrameRef. Two threads that
    # fill it at once build equal parts, so either may win; `replace` makes a
    # FrameRef without them.
    prompt_parts: Optional[tuple] = field(default=None, init=False, repr=False,
                                          compare=False)


@dataclass(frozen=True)
class Sample:
    sample_id: str
    video_id: str
    frames: tuple[FrameRef, ...]
    question: str
    gold_answers: tuple[str, ...]
    pseudo_keyframes: Optional[frozenset[int]] = None
    split_tag: str = ""

    def __post_init__(self):
        if not self.frames:
            raise ValueError("empty frames")
        if not self.gold_answers:
            raise ValueError("empty gold_answers")
        indices = [f.index for f in self.frames]
        if indices != list(range(len(self.frames))):
            raise ValueError("frame indices must be 0-based and contiguous")
        ts = [f.timestamp_s for f in self.frames if f.timestamp_s is not None]
        if ts != sorted(ts):
            raise ValueError("timestamps must be non-decreasing with index")
        if self.pseudo_keyframes is not None:
            bad = [i for i in self.pseudo_keyframes if not 0 <= i < len(self.frames)]
            if bad:
                raise ValueError(f"pseudo_keyframes out of range: {bad}")


@dataclass(frozen=True)
class DatasetManifest:
    samples: tuple[Sample, ...]
    source_uri: str


@dataclass(frozen=True)
class SamplingPolicy:
    """Uniform(n) keeps n index-spaced frames."""

    n: int

    @classmethod
    def uniform(cls, n: int) -> "SamplingPolicy":
        if n < 1:
            raise ValueError("Uniform(n) requires n >= 1")
        return cls(n=n)


def uniform_indices(count: int, n: int) -> list[int]:
    """Floor-spaced index subset of size min(n, count), endpoints included for n >= 2."""
    if n >= count:
        return list(range(count))
    if n == 1:
        return [0]
    return [(i * (count - 1)) // (n - 1) for i in range(n)]


def _frame_refs(raw_frames: list, line_no: int, refs: dict[tuple, FrameRef],
                checked: set[str]) -> tuple[FrameRef, ...]:
    """A record's frame entries as FrameRefs. `refs` (FrameRefs by their
    fields) and `checked` (paths found to exist) live for one load_manifest
    call. An index is taken when int() converts it without loss (3, 3.0,
    "3"), and a path must be a string, so entries that compare equal (`==`)
    give equal FrameRefs."""
    frames = []
    for fr in raw_frames:
        if not isinstance(fr, dict) or "index" not in fr or "path" not in fr:
            raise MalformedRecord(line_no, "frame entries need index and path")
        index, path = fr["index"], fr["path"]
        if not isinstance(path, str):
            raise MalformedRecord(line_no, f"frame path must be a string, got {path!r}")
        try:
            key = (int(index), path, float(fr["t"]) if "t" in fr else None)
        except (TypeError, ValueError, OverflowError) as e:
            raise MalformedRecord(line_no, f"bad frame entry {fr!r}: {e}") from e
        if isinstance(index, float) and key[0] != index:
            raise MalformedRecord(line_no, f"frame index must be a whole number, got {index!r}")
        ref = refs.get(key)
        if ref is None:
            if path not in checked:
                # follows symlinks, so a broken link counts as missing
                if not os.path.exists(path):
                    raise MissingFrameFile(path)
                checked.add(path)
            ref = refs[key] = FrameRef(*key)
        frames.append(ref)
    return tuple(frames)


def _sample_from_record(obj: dict, line_no: int, frames: tuple[FrameRef, ...]) -> Sample:
    """One manifest record, whose frame entries are `frames`, as a Sample."""
    answers = obj["answers"]
    if not isinstance(answers, list) or not answers:
        raise MalformedRecord(line_no, "empty answers")
    kf = obj.get("keyframes")
    try:
        return Sample(
            sample_id=str(obj["sample_id"]),
            video_id=str(obj["video_id"]),
            frames=frames,
            question=str(obj["question"]),
            gold_answers=tuple(str(a) for a in answers),
            pseudo_keyframes=frozenset(int(i) for i in kf) if kf is not None else None,
            split_tag=str(obj.get("split", "")),
        )
    except ValueError as e:
        raise MalformedRecord(line_no, str(e)) from e


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a JSONL manifest, aborting on the first invalid record.

    Every frame file must exist when the load checks it; MissingFrameFile
    names the first missing path in file order. Samples that repeat a frame
    share its FrameRef, and a record whose frame list equals the previous
    record's, as the questions about one video do, shares that record's
    frames tuple.
    """
    path = Path(path)
    samples: list[Sample] = []
    seen: set[str] = set()
    refs: dict[tuple, FrameRef] = {}
    checked: set[str] = set()
    last_raw, last_frames = None, ()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():  # what str.strip() empties
                continue
            try:
                obj = _decode_line(line)
            except ValueError as e:
                raise MalformedRecord(line_no, f"invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise MalformedRecord(line_no, "record must be an object")
            for name in ("sample_id", "video_id", "question", "answers", "frames"):
                if name not in obj:
                    raise MalformedRecord(line_no, f"missing field {name!r}")
            raw_frames = obj["frames"]
            if not isinstance(raw_frames, list) or not raw_frames:
                raise MalformedRecord(line_no, "empty frames")
            if raw_frames != last_raw:
                last_raw, last_frames = raw_frames, _frame_refs(raw_frames, line_no,
                                                                refs, checked)
            sample = _sample_from_record(obj, line_no, last_frames)
            if sample.sample_id in seen:
                raise DuplicateSampleId(sample.sample_id)
            seen.add(sample.sample_id)
            samples.append(sample)
    return DatasetManifest(samples=tuple(samples), source_uri=str(path))


def _sample_to_record(sample: Sample) -> dict:
    obj: dict = {
        "sample_id": sample.sample_id,
        "video_id": sample.video_id,
        "question": sample.question,
        "answers": list(sample.gold_answers),
        "frames": [
            {"index": f.index, "path": f.source_path,
             **({"t": f.timestamp_s} if f.timestamp_s is not None else {})}
            for f in sample.frames
        ],
    }
    if sample.pseudo_keyframes is not None:
        obj["keyframes"] = sorted(sample.pseudo_keyframes)
    if sample.split_tag:
        obj["split"] = sample.split_tag
    return obj


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write the manifest whole, through a temporary file (write_lines)."""
    write_lines(path, (json.dumps(_sample_to_record(sample), ensure_ascii=False)
                       for sample in manifest.samples))


def sample_frames(sample: Sample, policy: SamplingPolicy) -> Sample:
    """Keep a uniform-by-index subsequence of frames, re-numbered contiguously.

    Pseudo-keyframe annotations are remapped through the survivor mapping;
    annotations on dropped frames are discarded.
    """
    return _sample_frames(sample, policy, {})


def sample_manifest(manifest: DatasetManifest, policy: SamplingPolicy) -> DatasetManifest:
    """sample_frames on every sample. Samples whose frames are the same
    FrameRefs, as a load gives the questions about one video, share one
    sampled tuple, and with it the prompt parts the engine keeps on it."""
    sampled: dict[tuple[int, ...], tuple[FrameRef, ...]] = {}
    samples = tuple(_sample_frames(s, policy, sampled) for s in manifest.samples)
    return replace(manifest, samples=samples)


def _sample_frames(sample: Sample, policy: SamplingPolicy,
                   sampled: dict[tuple[int, ...], tuple[FrameRef, ...]]) -> Sample:
    """sample_frames, taking the sampled FrameRefs from `sampled`, keyed by the
    identities of the FrameRefs they were sampled from, when it has them.
    The caller keeps those FrameRefs alive while it keeps `sampled`, so no
    key's ids are reused, and samples with one policy."""
    count = len(sample.frames)
    if policy.n >= count:
        return sample
    keep = uniform_indices(count, policy.n)
    key = tuple(map(id, sample.frames))
    frames = sampled.get(key)
    if frames is None:
        frames = sampled[key] = tuple(replace(sample.frames[orig], index=new)
                                      for new, orig in enumerate(keep))
    kf = sample.pseudo_keyframes
    if kf is not None:
        mapping = {orig: new for new, orig in enumerate(keep)}
        kf = frozenset(mapping[i] for i in kf if i in mapping) or None
        # all annotated frames dropped -> annotation removed entirely
    return replace(sample, frames=frames, pseudo_keyframes=kf)


def _dedup_key(sample: Sample) -> tuple:
    question = " ".join(sample.question.casefold().split())
    return (sample.video_id, question, tuple(sorted(sample.gold_answers)))


def dedupe_samples(samples: Iterable[Sample]) -> list[Sample]:
    """Drop repeats of (video_id, normalized question, sorted answers), keeping first."""
    seen: set[tuple] = set()
    out: list[Sample] = []
    for sample in samples:
        key = _dedup_key(sample)
        if key in seen:
            continue
        seen.add(key)
        out.append(sample)
    return out
