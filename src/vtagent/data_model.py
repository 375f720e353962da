"""Dataset representation and ingestion: manifests, frame sub-sampling, dedup.

Videos arrive as pre-extracted frame image files listed in a JSONL manifest;
no decoding happens here. Loaded objects are immutable and safe to share
across worker threads.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Collection, Iterable, Iterator, Optional

from .errors import DuplicateSampleId, MalformedRecord, MissingFrameFile
from .jsonl import _raw_decode, _record, _record_with, read_lines, write_lines


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


class _CheckedFrames(tuple):
    """A frames tuple that has passed `_check_frames`. A load and sampling
    make them, so the samples that share one are not checked again."""

    __slots__ = ()


def _check_frames(frames: tuple[FrameRef, ...]) -> _CheckedFrames:
    """Non-empty frames, marked checked, if a Sample may hold them; else
    ValueError."""
    if type(frames) is _CheckedFrames:
        return frames
    indices = [f.index for f in frames]
    if indices != list(range(len(frames))):
        raise ValueError("frame indices must be 0-based and contiguous")
    ts = [f.timestamp_s for f in frames if f.timestamp_s is not None]
    if ts != sorted(ts):
        raise ValueError("timestamps must be non-decreasing with index")
    return _CheckedFrames(frames)


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
        if "\n" in self.sample_id or "\r" in self.sample_id:  # set_s.ids holds one a line
            raise ValueError(f"sample_id {self.sample_id!r} holds a line break")
        if not self.frames:
            raise ValueError("empty frames")
        if not self.gold_answers:
            raise ValueError("empty gold_answers")
        _check_frames(self.frames)
        if self.pseudo_keyframes is not None:
            bad = [i for i in self.pseudo_keyframes if not 0 <= i < len(self.frames)]
            if bad:
                raise ValueError(f"pseudo_keyframes out of range: {bad}")


@dataclass(frozen=True)
class DatasetManifest:
    samples: tuple[Sample, ...]


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


def _whole_number(value, line_no: int, what: str) -> int:
    """value as an int when int() converts it without loss (3, 3.0, "3"),
    else MalformedRecord naming the line."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedRecord(line_no, f"{what} must be a whole number, got {value!r}") from e
    if isinstance(value, float) and number != value:
        raise MalformedRecord(line_no, f"{what} must be a whole number, got {value!r}")
    return number


def _frame_refs(raw_frames: list, line_no: int,
                refs: dict[tuple, FrameRef]) -> tuple[FrameRef, ...]:
    """A record's frame entries as FrameRefs. `refs` (FrameRefs by their
    fields) lives for one load_manifest call. An index is a whole number
    (_whole_number) and a path a string, so entries that compare equal (`==`)
    give equal FrameRefs."""
    frames = []
    for fr in raw_frames:
        if not isinstance(fr, dict) or "index" not in fr or "path" not in fr:
            raise MalformedRecord(line_no, "frame entries need index and path")
        path = fr["path"]
        if not isinstance(path, str):
            raise MalformedRecord(line_no, f"frame path must be a string, got {path!r}")
        index = _whole_number(fr["index"], line_no, "frame index")
        try:
            key = (index, path, float(fr["t"]) if "t" in fr else None)
        except (TypeError, ValueError, OverflowError) as e:
            raise MalformedRecord(line_no, f"bad frame entry {fr!r}: {e}") from e
        ref = refs.get(key)
        if ref is None:
            ref = refs[key] = FrameRef(*key)
        frames.append(ref)
    return tuple(frames)


# When a frame directory is scanned (_listed): the load checks at least
# _SCAN_MIN_NAMES names in it, and its size is at most one block or
# _SCAN_BYTES_PER_NAME per name. A scan then reads at most
# _SCAN_ENTRIES_PER_NAME entries per name. A stat costs about three directory
# entries, and a scan costs about as much as 8 stats before it reads any, so
# a directory of 8 frames costs as much scanned as stat'ed. The first read of
# a large directory costs hundreds of microseconds however few entries are
# wanted from it, so a directory the load names only a small part of is
# cheaper to stat name by name.
_SCAN_MIN_NAMES = 16
_SCAN_BYTES_PER_NAME = 64
_SCAN_ENTRIES_PER_NAME = 4


def _listed(prefix: str, paths: Collection[str]) -> set[str]:
    """Those of `paths` (distinct, each `prefix` and a name) whose names a
    scan of the directory `prefix` names finds as entries that are not
    symlinks. Such a path exists once the directory allows a search, which
    one stat of a found path shows. A symlink, a name the scan does not
    reach or list (`..`, another case on a case-folding filesystem) and a
    directory that is not scanned are left to the caller's stat."""
    if len(paths) < _SCAN_MIN_NAMES:
        return set()
    directory = prefix or "."
    try:
        st = os.stat(directory)
        if st.st_size > max(st.st_blksize, _SCAN_BYTES_PER_NAME * len(paths)):
            return set()
        wanted = {path[len(prefix):]: path for path in paths}
        found = []
        with os.scandir(directory) as entries:
            for entry in islice(entries, _SCAN_ENTRIES_PER_NAME * len(paths)):
                path = wanted.get(entry.name)
                if path is not None and not entry.is_symlink():
                    found.append(path)
                    if len(found) == len(paths):
                        break
    except (OSError, ValueError):  # os.path.exists's own: missing, not a directory, NUL
        return set()
    # listing a directory needs read permission on it, stat'ing in it search
    if found and not os.path.exists(found[0]):
        return set()
    return set(found)


def _check_files(refs: dict[tuple, FrameRef]) -> None:
    """MissingFrameFile naming the first frame file of `refs`, in the order
    the load made them, for which os.path.exists is false. Each directory is
    scanned at most once (_listed), and only the paths its scan leaves are
    stat'ed, each once. os.path.exists follows symlinks, so a broken symlink
    counts as missing."""
    by_dir: defaultdict[str, dict[str, None]] = defaultdict(dict)  # distinct paths
    for ref in refs.values():
        path = ref.source_path
        by_dir[path[:path.rfind("/") + 1]][path] = None
    missing = set()
    for prefix, dir_paths in by_dir.items():
        listed = _listed(prefix, dir_paths)
        missing.update(path for path in dir_paths
                       if path not in listed and not os.path.exists(path))
    if missing:
        raise MissingFrameFile(next(ref.source_path for ref in refs.values()
                                    if ref.source_path in missing))


def _sample_from_record(obj: dict, line_no: int, frames: tuple[FrameRef, ...]) -> Sample:
    """One manifest record, whose frame entries are `frames`, as a Sample.
    Its keyframes, when present, are a list of whole numbers (_whole_number)."""
    answers = obj["answers"]
    if not isinstance(answers, list) or not answers:
        raise MalformedRecord(line_no, "empty answers")
    kf = obj.get("keyframes")
    if kf is not None:
        if not isinstance(kf, list):
            raise MalformedRecord(line_no, f"keyframes must be a list, got {kf!r}")
        kf = frozenset(_whole_number(i, line_no, "keyframe") for i in kf)
    try:
        return Sample(
            sample_id=str(obj["sample_id"]),
            video_id=str(obj["video_id"]),
            frames=_check_frames(frames),
            question=str(obj["question"]),
            gold_answers=tuple(str(a) for a in answers),
            pseudo_keyframes=kf,
            split_tag=str(obj.get("split", "")),
        )
    except ValueError as e:
        raise MalformedRecord(line_no, str(e)) from e


# A manifest line's frames key, as json.dumps and write_manifest write it
_FRAMES_KEY = '"frames":'


def _flat_objects(line: str, start: int, end: int, value: list) -> bool:
    """Whether `value`, decoded from line[start:end], is a non-empty array of
    objects that hold no array or object, so that a decode of the whole line
    recurses no deeper than a decode of the rest of it."""
    return (set(map(type, value)) == {dict} and line.find("[", start + 1, end) < 0
            and line.count("{", start, end) == len(value))


def _manifest_records(path: str | Path) -> Iterator[tuple[int, dict, bool]]:
    """Yield (line number, record, whether its frames equal the previous
    record's) for each non-blank line: read_records' line numbers and
    records, or its error, with one decode of a frames list for a run of
    lines that repeat its text, as the questions about one video do.

    A line whose text after `"frames":` (and any spaces and tabs) starts
    with the text of the frames list last decoded alone holds that list
    there: a JSON array's text ends at its own closing bracket. Only the
    rest of such a line is decoded (jsonl._record_with, which sends a line
    with a surrogate escape or a second \\u0000 escape to the whole decode).
    When a line's text there does not, and the previous record's frames
    equal the record's before it, its frames array is decoded alone and, if
    it is an array of flat objects (_flat_objects), kept for the lines after
    it; when neither holds, the kept list is dropped. Every other line, and
    any line these steps do not give a record, is decoded whole by `_record`,
    as read_records decodes it, and so is every line after a frames array
    that is not flat. A manifest whose records each hold their own frames
    list thus decodes every line whole, once."""
    text, shared = "", None  # the frames text last decoded alone, and its list
    # the previous record's frames, and whether they equalled the record's before
    previous, same = None, False
    flat = True  # no frames array decoded alone held an array or object
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        obj = None
        if flat and (text or same) and (key := line.find(_FRAMES_KEY)) >= 0:
            start = key + len(_FRAMES_KEY)
            while line.startswith((" ", "\t"), start):
                start += 1
            if text and line.startswith(text, start):
                obj = _record_with(line, "frames", start, start + len(text), shared)
            elif not same:
                text, shared = "", None  # a run of shared frames has ended
            else:
                try:
                    value, end = _raw_decode(line, start)
                except (ValueError, RecursionError):
                    value = None
                if type(value) is list:
                    flat = _flat_objects(line, start, end, value)
                    if flat:
                        text, shared = line[start:end], value
                        obj = _record_with(line, "frames", start, end, value)
        if obj is None:
            obj = _record(line, line_no, path)
        frames = obj.get("frames")
        same = frames is previous or frames == previous
        previous = frames
        yield line_no, obj, same


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a JSONL manifest, aborting on the first invalid record.

    Records are read as read_records reads them, through _manifest_records:
    lines whose frames text repeats the text of the frames list last decoded
    alone share that decoded list, and every other line is decoded whole.
    Escaped non-ASCII text (json.dumps' default) keeps the sharing, except
    on a line that holds a surrogate escape, as an emoji written so does.
    Every frame file must exist when the load checks it, which it does after
    reading the records (_check_files); MissingFrameFile names the first
    missing path in file order, ahead of any error in a later record.
    Samples that repeat a frame share its FrameRef, and a record whose frame
    list equals the previous record's, as the questions about one video do,
    shares that record's frames tuple, which is checked once.
    """
    samples: list[Sample] = []
    seen: set[str] = set()
    refs: dict[tuple, FrameRef] = {}
    last_frames: tuple[FrameRef, ...] = ()
    try:
        for line_no, obj, same_frames in _manifest_records(path):
            for name in ("sample_id", "video_id", "question", "answers", "frames"):
                if name not in obj:
                    raise MalformedRecord(line_no, f"missing field {name!r}")
            raw_frames = obj["frames"]
            if not isinstance(raw_frames, list) or not raw_frames:
                raise MalformedRecord(line_no, "empty frames")
            if not same_frames:  # the first record's are compared with None
                last_frames = _frame_refs(raw_frames, line_no, refs)
            sample = _sample_from_record(obj, line_no, last_frames)
            last_frames = sample.frames  # checked now
            if sample.sample_id in seen:
                raise DuplicateSampleId(sample.sample_id)
            seen.add(sample.sample_id)
            samples.append(sample)
    except Exception:
        _check_files(refs)  # the frames read before the failing record come first
        raise
    _check_files(refs)
    return DatasetManifest(samples=tuple(samples))


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
        # a uniform subsequence of checked frames, renumbered, passes the checks
        frames = sampled[key] = _CheckedFrames(replace(sample.frames[orig], index=new)
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
