"""Frame-wise oracle analysis.

Every frame is queried independently with a single-image QA prompt; a sample
counts as frame-solvable when any frame alone yields the exact answer. The
OR over frames is an upper bound exposing how much of the video-level gap is
evidence localization rather than reasoning. Correct frames double as pseudo
keyframe annotations for hit-rate measurement.

`oracle_upper_bound` runs one `framewise_eval` per sample through
`engine.run_units`, so its log is written per sample and a rerun resumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .backends import Backend, GenerationRequest, Message
from .data_model import DatasetManifest, Sample
from .engine import (ANSWER_TEMPLATE, EngineConfig, complete_with_retry, derive_seed,
                     frames_turn, run_units)
from .errors import (BackendTimeout, BackendUnavailable, MissingActionBlock,
                     NotFrameSolvable, ResponseEmpty, UnparsableAction)
from .grammar import Answer, KeyframeSet, parse_turn
from .metrics import SampleScore, exact_accuracy, hit


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


def build_frame_prompt(sample: Sample, frame_index: int,
                       config: EngineConfig) -> tuple[Message, ...]:
    """Single-image variant of the answer-turn prompt, so the only difference
    from the video-level run is the visual context."""
    return (frames_turn(ANSWER_TEMPLATE, (sample.frames[frame_index],), sample.question),)


def framewise_eval(sample: Sample, backend: Backend, config: EngineConfig) -> FramewiseResult:
    correct: list[bool] = []
    failed: list[int] = []
    for i in range(len(sample.frames)):
        req = GenerationRequest(
            messages=build_frame_prompt(sample, i, config),
            max_new_tokens=config.max_new_tokens,
            temperature=config.temperature,
            seed=derive_seed(config.seed, sample.sample_id, f"frame{i}", 0),
        )
        try:
            raw = complete_with_retry(backend, req, config)
            turn = parse_turn(raw)
            ok = (isinstance(turn.action, Answer)
                  and exact_accuracy(turn.action.text, sample.gold_answers) == 1)
        except (BackendUnavailable, BackendTimeout, ResponseEmpty):
            ok = False
            failed.append(i)
        except (MissingActionBlock, UnparsableAction):
            ok = False
        correct.append(ok)
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
    video_accuracy: Optional[float] = None  # x100, paired video-level run

    @property
    def gap(self) -> Optional[float]:
        if self.video_accuracy is None:
            return None
        return self.oracle_accuracy - self.video_accuracy


def oracle_upper_bound(manifest: DatasetManifest, backend: Backend,
                       config: EngineConfig,
                       video_accuracy: Optional[float] = None,
                       log_path: str | Path | None = None) -> OracleReport:
    """Frame-wise evaluation of every sample, `config.parallelism` samples at a
    time. With log_path, vectors already logged are reused and each new one
    is appended (framewise.jsonl format) as soon as it is done."""
    def one(sample: Sample) -> tuple[FramewiseResult, dict]:
        result = framewise_eval(sample, backend, config)
        return result, {"sample_id": result.sample_id,
                        "vector": list(result.per_frame_correct),
                        "any_correct": result.any_correct}

    prior, new = run_units(manifest.samples, one, config.parallelism, log_path)
    by_id = {r["sample_id"]: FramewiseResult(r["sample_id"], tuple(r["vector"]))
             for r in prior}
    by_id.update((r.sample_id, r) for r in new)
    results = [by_id[s.sample_id] for s in manifest.samples]
    set_s = tuple(r.sample_id for r in results if r.any_correct)
    set_u = tuple(r.sample_id for r in results if not r.any_correct)
    n = len(results) or 1
    oracle_acc = 100.0 * len(set_s) / n
    return OracleReport(oracle_accuracy=oracle_acc,
                        partition=Partition(set_s=set_s, set_u=set_u),
                        results=results, video_accuracy=video_accuracy)


@dataclass
class SubsetRow:
    subset: str
    n: int
    accuracy: Optional[float]  # x100; None when the subset is empty
    hit_rate: Optional[float] = None


def stratified_report(scores: Sequence[SampleScore], partition: Partition,
                      selections: Optional[dict[str, Sequence[int]]] = None,
                      pseudo: Optional[dict[str, frozenset[int]]] = None,
                      ) -> list[SubsetRow]:
    """Accuracy per Set_s / Set_u; hit rate over Set_s when selections and
    pseudo annotations are supplied."""
    by_id = {s.sample_id: s for s in scores}
    rows: list[SubsetRow] = []
    for name, ids in (("Set_s", partition.set_s), ("Set_u", partition.set_u)):
        subset = [by_id[i] for i in ids if i in by_id]
        if not subset:
            rows.append(SubsetRow(subset=name, n=0, accuracy=None))
            continue
        acc = 100.0 * sum(s.accuracy for s in subset) / len(subset)
        hit_rate = None
        if name == "Set_s" and selections is not None and pseudo is not None:
            hits = []
            for s in subset:
                sel = selections.get(s.sample_id)
                ann = pseudo.get(s.sample_id)
                if sel and ann:
                    hits.append(hit(KeyframeSet(ids=tuple(sel)), ann))
            if hits:
                hit_rate = 100.0 * sum(hits) / len(hits)
        rows.append(SubsetRow(subset=name, n=len(subset), accuracy=acc, hit_rate=hit_rate))
    return rows


def write_partition(partition: Partition, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "set_s.ids").write_text("".join(i + "\n" for i in partition.set_s),
                                       encoding="utf-8")
    (out_dir / "set_u.ids").write_text("".join(i + "\n" for i in partition.set_u),
                                       encoding="utf-8")


def read_partition(out_dir: str | Path) -> Partition:
    out_dir = Path(out_dir)
    set_s = tuple((out_dir / "set_s.ids").read_text(encoding="utf-8").split())
    set_u = tuple((out_dir / "set_u.ids").read_text(encoding="utf-8").split())
    return Partition(set_s=set_s, set_u=set_u)
