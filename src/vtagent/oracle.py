"""Frame-wise oracle analysis.

Every frame is queried independently with a single-image QA prompt, as a
one-reply turn of the engine's `ask` loop; a sample counts as frame-solvable
when any frame alone yields the exact answer. The OR over frames is an upper
bound exposing how much of the video-level gap is evidence localization
rather than reasoning. Correct frames double as pseudo keyframe annotations
for hit-rate measurement.

A sample's result is the record `framewise_eval` returns, `{"sample_id",
"vector", "any_correct", "failed_frames"}`: `framewise_job` hands it to
`engine.run_units`, which logs it to framewise.jsonl per sample, so a rerun
resumes it; the CLI runs that job in one pool with the agent episodes.
`oracle_report` builds the accuracy, partition and failed-frame totals from
the records, and `pseudo_keyframes` reads a record's correct frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .backends import Backend, Message
from .data_model import DatasetManifest, Sample
from .engine import ANSWER_TEMPLATE, EngineConfig, Job, ask, frames_turn
from .errors import BackendUnavailable, MalformedRecord
from .jsonl import read_lines, write_lines
from .metrics import MetricReport, SampleScore, aggregate, exact_accuracy


@dataclass(frozen=True)
class Partition:
    set_s: tuple[str, ...]  # frame-solvable
    set_u: tuple[str, ...]  # frame-unsolvable


def build_frame_prompt(sample: Sample, frame_index: int) -> tuple[Message, ...]:
    """Single-image variant of the answer-turn prompt, so the only difference
    from the video-level run is the visual context."""
    return (frames_turn(ANSWER_TEMPLATE, (sample.frames[frame_index],), sample.question),)


def framewise_eval(sample: Sample, backend: Backend, config: EngineConfig) -> dict:
    """The sample's framewise.jsonl record: one reply per frame, whose verdict
    is its entry in `vector`. A malformed or non-answer reply counts as
    incorrect; a frame whose transport tries all fail is also listed in
    `failed_frames`."""
    vector: list[bool] = []
    failed: list[int] = []
    for i in range(len(sample.frames)):
        try:
            turn, _, _ = ask(sample, backend, config, f"frame{i}", build_frame_prompt(sample, i),
                             1, [])
        except BackendUnavailable:
            turn = None
            failed.append(i)
        vector.append(turn is not None
                      and exact_accuracy(turn.action.text, sample.gold_answers) == 1)
    return {"sample_id": sample.sample_id, "vector": vector, "any_correct": any(vector),
            "failed_frames": failed}


def pseudo_keyframes(record: dict) -> frozenset[int]:
    """The frames a framewise record judged correct: none for a Set_u sample
    or an error record."""
    return frozenset(i for i, ok in enumerate(record.get("vector", ())) if ok)


@dataclass
class OracleReport:
    oracle_accuracy: float  # x100
    partition: Partition
    failed_frames: int  # frames the backend never answered, each counted incorrect
    failed_samples: int  # samples with such a frame


def framewise_job(manifest: DatasetManifest, backend: Backend, config: EngineConfig,
                  log_path: str | Path) -> Job:
    """`framewise_eval` per sample of the manifest, for `engine.run_units`:
    its record is what log_path (framewise.jsonl) holds and a rerun reuses."""
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

    return Job(manifest.samples, lambda sample: framewise_eval(sample, backend, config),
               log_path, check)


def oracle_report(manifest: DatasetManifest, records: Sequence[dict]) -> OracleReport:
    """The oracle accuracy, partition and failed-frame totals of the records
    `run_units` returns for `framewise_job`, one per sample of the manifest
    in its order."""
    n_frames = {s.sample_id: len(s.frames) for s in manifest.samples}
    # framewise_eval fails frames one by one, so only a log written by hand
    # holds an error record: the backend answered none of that sample's frames
    failed = [n_frames[r["sample_id"]] if "error" in r else len(r.get("failed_frames", ()))
              for r in records]
    solvable = [bool(pseudo_keyframes(r)) for r in records]
    set_s = tuple(r["sample_id"] for r, ok in zip(records, solvable) if ok)
    set_u = tuple(r["sample_id"] for r, ok in zip(records, solvable) if not ok)
    return OracleReport(oracle_accuracy=100.0 * len(set_s) / (len(records) or 1),
                        partition=Partition(set_s=set_s, set_u=set_u),
                        failed_frames=sum(failed), failed_samples=sum(map(bool, failed)))


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
    """What write_partition wrote: one sample_id a line, spaces kept. An id
    listed twice, in one file or in both, is named by its second line."""
    seen: set[str] = set()
    subsets = []
    for name in ("set_s.ids", "set_u.ids"):
        path = Path(out_dir) / name
        subsets.append([])
        for line_no, sample_id in read_lines(path):
            if sample_id in seen:
                raise MalformedRecord(line_no, f"sample_id {sample_id!r} in {path} "
                                               "is listed twice in the partition")
            seen.add(sample_id)
            subsets[-1].append(sample_id)
    return Partition(*map(tuple, subsets))
