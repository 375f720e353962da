"""Frame-wise oracle analysis.

Every frame is queried independently with a single-image QA prompt, as a
one-reply turn of the engine's `ask` loop; a sample counts as frame-solvable
when any frame alone yields the exact answer. The OR over frames is an upper
bound exposing how much of the video-level gap is evidence localization
rather than reasoning. Correct frames double as pseudo keyframe annotations
for hit-rate measurement.

`framewise_job` is one `framewise_eval` per sample as a job of
`engine.run_units`, so its log is written per sample and a rerun resumes
it; the CLI runs it in one pool with the agent episodes. `oracle_report`
builds the accuracy and partition from its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .backends import Backend, Message
from .data_model import DatasetManifest, Sample
from .engine import ANSWER_TEMPLATE, EngineConfig, Job, ask, frames_turn
from .errors import BackendUnavailable, NotFrameSolvable
from .jsonl import read_lines, write_lines
from .metrics import MetricReport, SampleScore, aggregate, exact_accuracy


@dataclass(frozen=True)
class FramewiseResult:
    sample_id: str
    per_frame_correct: tuple[bool, ...]
    failed_frames: tuple[int, ...] = ()  # backend failures, recorded as incorrect

    @property
    def any_correct(self) -> bool:
        return any(self.per_frame_correct)


@dataclass(frozen=True)
class Partition:
    set_s: tuple[str, ...]  # frame-solvable
    set_u: tuple[str, ...]  # frame-unsolvable


def build_frame_prompt(sample: Sample, frame_index: int) -> tuple[Message, ...]:
    """Single-image variant of the answer-turn prompt, so the only difference
    from the video-level run is the visual context."""
    return (frames_turn(ANSWER_TEMPLATE, (sample.frames[frame_index],), sample.question),)


def framewise_eval(sample: Sample, backend: Backend, config: EngineConfig) -> FramewiseResult:
    """One reply per frame: a malformed or non-answer reply counts as incorrect;
    a frame whose transport tries all fail is also recorded in failed_frames."""
    correct: list[bool] = []
    failed: list[int] = []
    for i in range(len(sample.frames)):
        try:
            turn, _, _ = ask(sample, backend, config, f"frame{i}", build_frame_prompt(sample, i),
                             1, [])
        except BackendUnavailable:
            turn = None
            failed.append(i)
        correct.append(turn is not None
                       and exact_accuracy(turn.action.text, sample.gold_answers) == 1)
    return FramewiseResult(sample_id=sample.sample_id,
                           per_frame_correct=tuple(correct),
                           failed_frames=tuple(failed))


def pseudo_keyframes(result: FramewiseResult) -> frozenset[int]:
    if not result.any_correct:
        raise NotFrameSolvable(result.sample_id)
    return frozenset(i for i, ok in enumerate(result.per_frame_correct) if ok)


@dataclass
class OracleReport:
    oracle_accuracy: float  # x100
    partition: Partition
    results: list[FramewiseResult]


def framewise_job(manifest: DatasetManifest, backend: Backend, config: EngineConfig,
                  log_path: str | Path) -> Job:
    """One `framewise_eval` per sample of the manifest, for `engine.run_units`.
    Each sample's record in log_path (framewise.jsonl) is its vector, which a
    rerun reuses."""
    def one(sample: Sample) -> dict:
        result = framewise_eval(sample, backend, config)
        return {"sample_id": result.sample_id,
                "vector": list(result.per_frame_correct),
                "any_correct": result.any_correct,
                "failed_frames": list(result.failed_frames)}

    n_frames = {s.sample_id: len(s.frames) for s in manifest.samples}

    def check(record: dict) -> Optional[str]:
        vector = record.get("vector")
        if not isinstance(vector, list):
            return "has no list 'vector'"
        if not all(type(v) is bool for v in vector):
            return "has a 'vector' entry that is not a bool"
        # a record of a sample not in the manifest is never read
        n = n_frames.get(record["sample_id"], len(vector))
        if len(vector) != n:
            return f"has a 'vector' of {len(vector)} entries for {n} frames"
        # logs written before failed_frames was recorded read as no failures
        failed = record.get("failed_frames", [])
        if not (isinstance(failed, list) and all(type(i) is int and 0 <= i < n for i in failed)):
            return "has a 'failed_frames' that is not a list of frame indices"
        return None

    return Job(manifest.samples, one, log_path, check)


def oracle_report(manifest: DatasetManifest, records: Sequence[dict]) -> OracleReport:
    """The oracle accuracy and partition of the records `run_units` returns
    for `framewise_job`, one per sample of the manifest in its order."""
    n_frames = {s.sample_id: len(s.frames) for s in manifest.samples}
    # framewise_eval fails frames one by one, so only a log written by hand
    # holds an error record: the backend answered none of that sample's frames
    results = [FramewiseResult(r["sample_id"], tuple(r["vector"]),
                               tuple(r.get("failed_frames", ()))) if "error" not in r else
               FramewiseResult(r["sample_id"], (False,) * n_frames[r["sample_id"]],
                               tuple(range(n_frames[r["sample_id"]])))
               for r in records]
    set_s = tuple(r.sample_id for r in results if r.any_correct)
    set_u = tuple(r.sample_id for r in results if not r.any_correct)
    n = len(results) or 1
    oracle_acc = 100.0 * len(set_s) / n
    return OracleReport(oracle_accuracy=oracle_acc,
                        partition=Partition(set_s=set_s, set_u=set_u),
                        results=results)


def stratified_report(scores: Sequence[SampleScore], partition: Partition,
                      ) -> dict[str, Optional[MetricReport]]:
    """`metrics.aggregate` over the scores of Set_s and of Set_u, None for a
    subset with no scores. Hit% comes from each score's `hit`, which
    `reporting.score_records` fills when the manifest carries `keyframes`."""
    by_id = {s.sample_id: s for s in scores}
    reports: dict[str, Optional[MetricReport]] = {}
    for name, ids in (("Set_s", partition.set_s), ("Set_u", partition.set_u)):
        subset = [by_id[i] for i in ids if i in by_id]
        reports[name] = aggregate(subset, split_tag=name) if subset else None
    return reports


def write_partition(partition: Partition, out_dir: str | Path) -> None:
    """set_s.ids and set_u.ids, one sample_id a line, each replaced whole."""
    write_lines(Path(out_dir) / "set_s.ids", partition.set_s)
    write_lines(Path(out_dir) / "set_u.ids", partition.set_u)


def read_partition(out_dir: str | Path) -> Partition:
    """What write_partition wrote: one sample_id a line, spaces kept."""
    return Partition(*(tuple(line for _, line in read_lines(Path(out_dir) / name))
                       for name in ("set_s.ids", "set_u.ids")))
