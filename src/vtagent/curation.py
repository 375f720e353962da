"""Training-corpus builders.

Both rerun each sample up to `EngineConfig.max_attempts` times as one-shot
episodes decoded at temperature 1 (whatever the configured temperature),
attempt k seeded seed + k, with uniform fallback keyframes. Each call of an
episode gets a single transport try, not `max_attempts` as in eval and the
oracle: one transient error (a 429, a 503, a timeout) fails the sample.

SFT: stop at the first trajectory that both uses a valid keyframe selection
and produces a judged-correct answer, then freeze the canonical two-turn
rendering as the target.

RL: run every attempt and keep only samples with mixed outcomes — all-correct
and all-wrong samples carry no group-relative learning signal (DAPO's dynamic
sampling, arXiv:2503.14476). An episode whose anchoring fell back counts as
incorrect, as it would earn no accuracy reward in RL.

Both run each sample's attempt loop as one unit of `engine.run_units`,
`parallelism` samples at a time. The unit's record is the sample's outcome:
kept with its corpus line, dropped, or failed with the backend error. It is
appended to the outcome log in manifest order as soon as it is decided, and
a rerun on the same log skips every sample already in it, dropped and
failed ones too, as eval's resume skips its error records. The corpus is the
kept lines in manifest order; `write_corpus` writes it whole once the run is
done.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .backends import Backend
from .data_model import DatasetManifest
from .engine import EngineConfig, Trajectory, missing_key, run_episode, run_units
from .errors import TRANSIENT_ERRORS
from .grammar import Answer, SelectKeyframes, parse_trajectory_text, render_turn
from .jsonl import write_lines
from .metrics import anls, exact_accuracy


def default_judge(pred: str, golds: Sequence[str]) -> bool:
    """Exact match or per-answer ANLS >= 0.5: keeps near-miss trajectories."""
    return exact_accuracy(pred, golds) == 1 or anls(pred, golds) >= 0.5


@dataclass
class CurationStats:
    """Outcome totals over every sample, logged earlier or new."""
    kept: int = 0
    dropped: int = 0
    failed: int = 0   # backend failures

    def yield_line(self) -> str:
        total = self.kept + self.dropped + self.failed
        return f"kept {100.0 * self.kept / (total or 1):.1f}% of inputs"


def _episodes(sample, backend: Backend,
              engine_config: EngineConfig) -> Iterator[tuple[int, Trajectory]]:
    """Up to `engine_config.max_attempts` one-shot episodes, attempt k seeded seed + k.

    Decoding is stochastic (temperature 1): retries only make sense off the
    greedy path. Parse retries are curation attempts, not engine retries, and
    fallback keyframes are always uniform.
    """
    episode_config = replace(engine_config, max_attempts=1, fallback="uniform",
                             temperature=1.0)
    for attempt in range(1, engine_config.max_attempts + 1):
        yield attempt, run_episode(sample, backend,
                                   replace(episode_config, seed=engine_config.seed + attempt))


def _curate(manifest: DatasetManifest, unit, parallelism: int,
            log_path: str | Path) -> tuple[list[dict], CurationStats]:
    """Run `unit` once per sample through the runner, logging each sample's
    outcome, and return the kept corpus lines in manifest order and the totals.

    unit(sample) returns the corpus line of a kept sample and None for a
    dropped one; a backend failure marks the sample failed.
    """
    def one(sample) -> dict:
        try:
            line = unit(sample)
        except TRANSIENT_ERRORS as e:
            return {"sample_id": sample.sample_id, "outcome": "failed", "error": str(e)}
        if line is None:
            return {"sample_id": sample.sample_id, "outcome": "dropped"}
        return {"sample_id": sample.sample_id, "outcome": "kept", "line": line}

    def check(r: dict) -> Optional[str]:
        if r.get("outcome") not in ("kept", "dropped", "failed"):
            return f"has no known 'outcome' (got {r.get('outcome')!r})"
        return missing_key(r, "line") if r["outcome"] == "kept" else None

    records = run_units(manifest.samples, one, parallelism, log_path, check)
    counts = Counter(r["outcome"] for r in records)
    stats = CurationStats(kept=counts["kept"], dropped=counts["dropped"],
                          failed=counts["failed"])
    return [r["line"] for r in records if r["outcome"] == "kept"], stats


def write_corpus(lines: Sequence[dict], path: str | Path) -> None:
    """One JSON line per corpus line, replacing path whole."""
    write_lines(path, (json.dumps(line, ensure_ascii=False) for line in lines))


def _sft_target(traj: Trajectory) -> str:
    return render_turn(traj.turn1) + "\n" + render_turn(traj.turn2)


def _check_target(target: str, golds: Sequence[str]) -> bool:
    # re-checked at write time: target must round-trip and its answer must pass
    turns = parse_trajectory_text(target)
    if len(turns) != 2 or not isinstance(turns[0].action, SelectKeyframes):
        return False
    if not isinstance(turns[1].action, Answer):
        return False
    return default_judge(turns[1].action.text, golds)


def generate_sft_corpus(manifest: DatasetManifest, teacher_backend: Backend,
                        engine_config: EngineConfig, log_path: str | Path,
                        teacher_id: str = "teacher") -> tuple[list[dict], CurationStats]:
    """Per sample: stochastic episodes until one passes (valid selection + judged
    answer), at most engine_config.max_attempts; never-passing samples are
    dropped."""
    def unit(sample) -> Optional[dict]:
        for attempt, traj in _episodes(sample, teacher_backend, engine_config):
            if traj.used_fallback:
                continue  # fallback keyframes are not valid supervision
            target = _sft_target(traj)
            if _check_target(target, sample.gold_answers):
                return {"sample_id": sample.sample_id,
                        "frames": [f.source_path for f in sample.frames],
                        "question": sample.question,
                        "target": target,
                        "teacher": teacher_id,
                        "attempts": attempt}
        return None

    return _curate(manifest, unit, engine_config.parallelism, log_path)


def filter_rl_corpus(manifest: DatasetManifest, model_backend: Backend,
                     engine_config: EngineConfig, log_path: str | Path,
                     ) -> tuple[list[dict], CurationStats]:
    """Retain samples whose outcomes over engine_config.max_attempts stochastic
    episodes are mixed: 0 < correct < max_attempts.

    Malformed answers, and the answer of an episode whose anchoring fell back,
    count as incorrect.
    """
    def unit(sample) -> Optional[dict]:
        answers: list[str] = []
        correct = 0
        for _, traj in _episodes(sample, model_backend, engine_config):
            answer = traj.turn2.action.text if isinstance(traj.turn2.action, Answer) else ""
            answers.append(answer)
            if answer and not traj.used_fallback and default_judge(answer, sample.gold_answers):
                correct += 1
        if not 0 < correct < engine_config.max_attempts:
            return None
        return {"sample_id": sample.sample_id, "correct_count": correct,
                "attempt_answers": answers}

    return _curate(manifest, unit, engine_config.parallelism, log_path)
