"""Frame-wise oracle analysis.

Every frame is queried independently with a single-image QA prompt, as a
one-reply turn of the engine's `ask` loop; a sample counts as frame-solvable
when any frame alone yields the exact answer. The OR over frames is an upper
bound exposing how much of the video-level gap is evidence localization
rather than reasoning. Correct frames double as pseudo keyframe annotations
for hit-rate measurement.

`oracle_upper_bound` runs one `framewise_eval` per sample through
`engine.run_units`, so its log is written per sample and a rerun resumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .backends import Backend, Message
from .data_model import DatasetManifest, Sample
from .engine import ANSWER_TEMPLATE, EngineConfig, ask, frames_turn, run_units
from .errors import TRANSIENT_ERRORS, ConfigError, NotFrameSolvable
from .jsonl import write_lines
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
        except TRANSIENT_ERRORS:
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


def oracle_upper_bound(manifest: DatasetManifest, backend: Backend,
                       config: EngineConfig, log_path: str | Path) -> OracleReport:
    """Frame-wise evaluation of every sample, `config.parallelism` samples at a
    time. Vectors already in log_path (framewise.jsonl format) are reused,
    and each new one is appended as soon as it is done."""
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
        return None

    # logs written before failed_frames was recorded read as no failures
    results = [FramewiseResult(r["sample_id"], tuple(r["vector"]),
                               tuple(r.get("failed_frames", ())))
               for r in run_units(manifest.samples, one, config.parallelism, log_path, check)]
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
    set_s, set_u = (Path(out_dir) / "set_s.ids", Path(out_dir) / "set_u.ids")
    for path in (set_s, set_u):
        if not path.is_file():
            raise ConfigError(f"partition file not found: {path}")
    return Partition(set_s=tuple(set_s.read_text(encoding="utf-8").split()),
                     set_u=tuple(set_u.read_text(encoding="utf-8").split()))
