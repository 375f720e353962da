"""Training-corpus builders.

Both rerun each sample up to `EngineConfig.max_attempts` times as one-shot
episodes decoded at temperature 1 (whatever the configured temperature),
attempt k seeded seed + k, with uniform fallback keyframes.

SFT: stop at the first trajectory that both uses a valid keyframe selection
and produces a judged-correct answer, then freeze the canonical two-turn
rendering as the target.

RL: run every attempt and keep only samples with mixed outcomes — all-correct
and all-wrong samples carry no group-relative learning signal.

Both run each sample's attempt loop as one unit of `engine.run_units`:
`parallelism` samples at a time, each kept sample's line appended in manifest
order as soon as it is done, and sample_ids already in the output skipped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .backends import Backend
from .data_model import DatasetManifest
from .engine import EngineConfig, Trajectory, run_episode, run_units
from .errors import TRANSIENT_ERRORS
from .grammar import Answer, SelectKeyframes, parse_trajectory_text, render_turn
from .metrics import anls, exact_accuracy

Judge = Callable[[str, Sequence[str]], bool]


def default_judge(pred: str, golds: Sequence[str]) -> bool:
    """Exact match or per-answer ANLS >= 0.5: keeps near-miss trajectories."""
    return exact_accuracy(pred, golds) == 1 or anls(pred, golds) >= 0.5


@dataclass(frozen=True)
class SftRecord:
    sample_id: str
    prompt: dict          # anchor prompt descriptor (question, frame count)
    target: str           # canonical two-turn rendering
    teacher_id: str
    attempts: int


@dataclass(frozen=True)
class RlRecord:
    sample_id: str
    correct_count: int
    attempt_answers: tuple[str, ...]


@dataclass
class CurationStats:
    kept: int = 0
    dropped: int = 0
    skipped: int = 0  # already present in output (resume)
    failed: int = 0   # backend failures

    @property
    def total(self) -> int:
        return self.kept + self.dropped + self.skipped + self.failed

    def yield_line(self) -> str:
        denom = self.total or 1
        return f"kept {100.0 * (self.kept + self.skipped) / denom:.1f}% of inputs"


def _episodes(sample, backend: Backend,
              engine_config: EngineConfig) -> Iterator[tuple[int, Trajectory]]:
    """Up to `engine_config.max_attempts` one-shot episodes, attempt k seeded seed + k.

    Decoding is stochastic (temperature 1): retries only make sense off the
    greedy path. Parse retries are curation attempts, not engine retries, and
    fallback keyframes are always uniform.
    """
    episode_config = replace(engine_config, max_attempts=1, fallback_policy="uniform",
                             temperature=1.0)
    for attempt in range(1, engine_config.max_attempts + 1):
        cfg = replace(episode_config,
                      seed=None if engine_config.seed is None else engine_config.seed + attempt)
        yield attempt, run_episode(sample, backend, cfg)


def _curate(manifest: DatasetManifest, unit, parallelism: int,
            out_path: str | Path | None) -> tuple[list, CurationStats]:
    """Run `unit` once per sample through the runner and tally the outcomes.

    unit(sample) returns (record, line) for a kept sample and None for a
    dropped one; a backend failure marks the sample failed and logs nothing.
    """
    def one(sample):
        try:
            kept = unit(sample)
        except TRANSIENT_ERRORS:
            return ("failed", None), None
        if kept is None:
            return ("dropped", None), None
        return ("kept", kept[0]), kept[1]

    _, results = run_units(manifest.samples, one, parallelism, out_path)
    counts = Counter(outcome for outcome, _ in results)
    stats = CurationStats(kept=counts["kept"], dropped=counts["dropped"],
                          skipped=len(manifest.samples) - len(results),
                          failed=counts["failed"])
    return [record for outcome, record in results if outcome == "kept"], stats


def _sft_target(traj: Trajectory) -> str:
    return render_turn(traj.turn1) + "\n" + render_turn(traj.turn2)


def _check_target(target: str, golds: Sequence[str], judge: Judge) -> bool:
    # re-checked at write time: target must round-trip and its answer must pass
    turns = parse_trajectory_text(target)
    if len(turns) != 2 or not isinstance(turns[0].action, SelectKeyframes):
        return False
    if not isinstance(turns[1].action, Answer):
        return False
    return judge(turns[1].action.text, golds)


def generate_sft_corpus(manifest: DatasetManifest, teacher_backend: Backend,
                        engine_config: EngineConfig, judge: Judge = default_judge,
                        out_path: str | Path | None = None,
                        teacher_id: str = "teacher") -> tuple[list[SftRecord], CurationStats]:
    """Per sample: stochastic episodes until one passes (valid selection + judged
    answer), at most engine_config.max_attempts; never-passing samples are
    dropped."""
    def unit(sample) -> Optional[tuple[SftRecord, dict]]:
        for attempt, traj in _episodes(sample, teacher_backend, engine_config):
            if traj.used_fallback:
                continue  # fallback keyframes are not valid supervision
            target = _sft_target(traj)
            if not _check_target(target, sample.gold_answers, judge):
                continue
            record = SftRecord(
                sample_id=sample.sample_id,
                prompt={"question": sample.question, "n_frames": len(sample.frames)},
                target=target, teacher_id=teacher_id, attempts=attempt)
            return record, {
                "sample_id": record.sample_id,
                "frames": [f.source_path for f in sample.frames],
                "question": sample.question,
                "target": record.target,
                "teacher": record.teacher_id,
                "attempts": record.attempts,
            }
        return None

    return _curate(manifest, unit, engine_config.parallelism, out_path)


def filter_rl_corpus(manifest: DatasetManifest, model_backend: Backend,
                     engine_config: EngineConfig, judge: Judge = default_judge,
                     out_path: str | Path | None = None,
                     ) -> tuple[list[RlRecord], CurationStats]:
    """Retain samples whose outcomes over engine_config.max_attempts stochastic
    episodes are mixed: 0 < correct < max_attempts.

    Malformed or fallback answers count as incorrect.
    """
    def unit(sample) -> Optional[tuple[RlRecord, dict]]:
        answers: list[str] = []
        correct = 0
        for _, traj in _episodes(sample, model_backend, engine_config):
            answer = traj.turn2.action.text if isinstance(traj.turn2.action, Answer) else ""
            answers.append(answer)
            if answer and judge(answer, sample.gold_answers):
                correct += 1
        if not 0 < correct < engine_config.max_attempts:
            return None
        record = RlRecord(sample_id=sample.sample_id, correct_count=correct,
                          attempt_answers=tuple(answers))
        return record, {"sample_id": record.sample_id,
                        "correct_count": record.correct_count,
                        "attempt_answers": list(record.attempt_answers)}

    return _curate(manifest, unit, engine_config.parallelism, out_path)
