"""Dataset representation and ingestion: manifests, frame sub-sampling, dedup.

Videos arrive as pre-extracted frame image files listed in a JSONL manifest;
no decoding happens here. Loaded objects are immutable and safe to share
across worker threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

from .errors import DuplicateSampleId, MalformedRecord, MissingFrameFile

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FrameRef:
    index: int
    source_path: str
    timestamp_s: Optional[float] = None


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
    schema_version: int = SCHEMA_VERSION


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


def _sample_from_record(obj: dict, line_no: int, check_frames: bool) -> Sample:
    for field in ("sample_id", "video_id", "question", "answers", "frames"):
        if field not in obj:
            raise MalformedRecord(line_no, f"missing field {field!r}")
    frames = []
    raw_frames = obj["frames"]
    if not isinstance(raw_frames, list) or not raw_frames:
        raise MalformedRecord(line_no, "empty frames")
    for fr in raw_frames:
        if not isinstance(fr, dict) or "index" not in fr or "path" not in fr:
            raise MalformedRecord(line_no, "frame entries need index and path")
        path = str(fr["path"])
        if check_frames and not Path(path).exists():
            raise MissingFrameFile(path)
        frames.append(FrameRef(index=int(fr["index"]), source_path=path,
                               timestamp_s=float(fr["t"]) if "t" in fr else None))
    answers = obj["answers"]
    if not isinstance(answers, list) or not answers:
        raise MalformedRecord(line_no, "empty answers")
    kf = obj.get("keyframes")
    try:
        return Sample(
            sample_id=str(obj["sample_id"]),
            video_id=str(obj["video_id"]),
            frames=tuple(frames),
            question=str(obj["question"]),
            gold_answers=tuple(str(a) for a in answers),
            pseudo_keyframes=frozenset(int(i) for i in kf) if kf is not None else None,
            split_tag=str(obj.get("split", "")),
        )
    except ValueError as e:
        raise MalformedRecord(line_no, str(e)) from e


def load_manifest(path: str | Path, check_frames: bool = True) -> DatasetManifest:
    """Load a JSONL manifest, aborting on the first invalid record."""
    path = Path(path)
    samples: list[Sample] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedRecord(line_no, f"invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise MalformedRecord(line_no, "record must be an object")
            sample = _sample_from_record(obj, line_no, check_frames)
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
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for sample in manifest.samples:
            fh.write(json.dumps(_sample_to_record(sample), ensure_ascii=False) + "\n")


def sample_frames(sample: Sample, policy: SamplingPolicy) -> Sample:
    """Keep a uniform-by-index subsequence of frames, re-numbered contiguously.

    Pseudo-keyframe annotations are remapped through the survivor mapping;
    annotations on dropped frames are discarded.
    """
    count = len(sample.frames)
    if policy.n >= count:
        return sample
    keep = uniform_indices(count, policy.n)
    mapping = {orig: new for new, orig in enumerate(keep)}
    frames = tuple(
        replace(sample.frames[orig], index=new) for orig, new in mapping.items()
    )
    kf = sample.pseudo_keyframes
    if kf is not None:
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
