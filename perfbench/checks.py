"""Predicted outputs of each pipeline, derived from the fixture rules alone,
and the checks that compare a pipeline's output files against them.

The predictions follow the protocol the program documents: a failed anchor
parse is re-asked up to ``--max-attempts`` times and then falls back; eval
and the oracle retry transport errors; curation episodes make one call per
turn, so a transport error fails the sample. Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from fixtures import Fixture, Rule


def judged(outcome: str) -> bool:
    """The default curation judge: exact match, or ANLS >= 0.5 (the near miss)."""
    return outcome in "CN"


def anls_of(rule: Rule, outcome: str) -> float:
    return {"C": 1.0, "N": 1.0 - 1.0 / len(rule.gold), "W": 0.0}[outcome]


def episode_calls(rule: Rule, attempts: int) -> tuple[bool, list[int]]:
    """Eval episode: (used_fallback, [anchor calls, answer calls])."""
    if rule.anchor_bad >= attempts:
        return True, [attempts, 1]
    return False, [rule.anchor_bad + 1, 1]


def eval_summary(rules: list[Rule], attempts: int) -> dict:
    n = len(rules)
    acc = sum(r.pattern[0] == "C" for r in rules)
    anls = math.fsum(anls_of(r, r.pattern[0]) for r in rules)
    hits = [bool(set(r.select) & set(r.pseudo)) for r in rules
            if r.pseudo is not None and not episode_calls(r, attempts)[0]]
    return {"n": n, "mean_accuracy": 100.0 * acc / n, "mean_anls": 100.0 * anls / n,
            "hit_rate": 100.0 * sum(hits) / len(hits) if hits else None}


def curation_outcome(rule: Rule, attempts: int, mode: str,
                     ignore_failures: bool = False) -> tuple[str, int]:
    """('kept', attempt or correct count) | ('dropped', 0) | ('failed', 0)."""
    if not ignore_failures and (rule.stale or "anchor" in rule.fail
                                or "answer" in rule.fail):
        return "failed", 0
    correct = 0
    for episode in range(attempts):
        fallback = episode < rule.anchor_bad
        outcome = rule.pattern[episode % len(rule.pattern)]
        if mode == "sft" and not fallback and judged(outcome):
            return "kept", episode + 1
        correct += judged(outcome)
    if mode == "rl" and 0 < correct < attempts:
        return "kept", correct
    return "dropped", 0


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_trajectories(records: list[dict], rules: list[Rule], attempts: int) -> list[str]:
    problems = []
    if [r.get("sample_id") for r in records] != [r.sample_id for r in rules]:
        return [f"trajectory ids differ from the manifest ({len(records)} records)"]
    for rec, rule in zip(records, rules):
        if "error" in rec:
            problems.append(f"{rule.sample_id}: error record {rec['error']!r}")
            continue
        fallback, calls = episode_calls(rule, attempts)
        want = rule.text(rule.pattern[0])
        if rec["answer"] != want:
            problems.append(f"{rule.sample_id}: answer {rec['answer']!r} != {want!r}")
        if rec["used_fallback"] != fallback or rec["attempts"] != calls:
            problems.append(f"{rule.sample_id}: fallback/attempts "
                            f"{rec['used_fallback']}/{rec['attempts']} != {fallback}/{calls}")
        if not fallback and tuple(rec["keyframe_ids"]) != rule.select:
            problems.append(f"{rule.sample_id}: keyframes {rec['keyframe_ids']}")
    return problems


def check_scores(path: Path, rules: list[Rule], attempts: int) -> list[str]:
    lines = _read_jsonl(path)
    summary = lines[-1] if lines and lines[-1].get("summary") else None
    if summary is None:
        return [f"{path.name}: no summary record"]
    want = eval_summary(rules, attempts)
    return [f"{path.name}: {k} {summary.get(k)} != predicted {v}"
            for k, v in want.items() if not _close(summary.get(k), v)]


def check_eval(out: Path, rules: list[Rule], attempts: int) -> list[str]:
    return (check_trajectories(_read_jsonl(out / "trajectories.jsonl"), rules, attempts)
            + check_scores(out / "scores.jsonl", rules, attempts))


def check_oracle(out: Path, rules: list[Rule], attempts: int) -> list[str]:
    problems = check_eval(out, rules, attempts)
    frames = _read_jsonl(out / "framewise.jsonl")
    for rec, rule in zip(frames, rules):
        want = [i in rule.evidence for i in range(len(rec["vector"]))]
        if rec["sample_id"] != rule.sample_id or rec["vector"] != want:
            problems.append(f"{rule.sample_id}: framewise vector {rec['vector']}")
    if len(frames) != len(rules):
        problems.append(f"framewise.jsonl has {len(frames)} records, want {len(rules)}")
    set_s = (out / "set_s.ids").read_text(encoding="utf-8").split() \
        if (out / "set_s.ids").exists() else []
    want_s = [r.sample_id for r in rules if r.evidence]
    if set_s != want_s:
        problems.append(f"Set_s has {len(set_s)} ids, predicted {len(want_s)}")
    return problems


def check_curation(path: Path, rules: list[Rule], attempts: int, mode: str,
                   printed_failed: int | None) -> tuple[list[str], int, int]:
    """Returns (problems, samples failed, samples kept).

    A sample with an injected transport failure is predicted to fail; it may
    instead get its failure-free outcome, so a retry policy in curation stays
    correct. RL curation prints no failure count: those samples are chosen so
    that RL would keep them, which makes a failure visible as a missing record.
    """
    records = {rec["sample_id"]: rec for rec in _read_jsonl(path)}
    kept = len(records)
    problems = []
    failed = 0
    for rule in rules:
        outcome, value = curation_outcome(rule, attempts, mode)
        alt = curation_outcome(rule, attempts, mode, ignore_failures=True)
        rec = records.pop(rule.sample_id, None)
        got = ("kept", rec["attempts"] if mode == "sft" else rec["correct_count"]) \
            if rec else None
        if outcome == "failed":
            if got is None:
                failed += 1
                continue
            if rule.stale or got != alt:
                problems.append(f"{rule.sample_id}: {mode} {got}, predicted failed or {alt}")
            continue
        if outcome == "kept" and got != (outcome, value):
            problems.append(f"{rule.sample_id}: {mode} {got}, predicted kept {value}")
        elif outcome == "dropped" and got is not None:
            problems.append(f"{rule.sample_id}: {mode} kept, predicted dropped")
        elif rec and mode == "rl":
            answers = [rule.text(rule.pattern[i % len(rule.pattern)]) for i in range(attempts)]
            if rec["attempt_answers"] != answers:
                problems.append(f"{rule.sample_id}: rl answers {rec['attempt_answers']}")
    if records:
        problems.append(f"{mode}: unexpected records {sorted(records)[:5]}")
    if printed_failed is not None:
        if printed_failed != failed:
            problems.append(f"{mode}: printed {printed_failed} failed, corpus shows {failed}")
    return problems, failed, kept


def error_records(path: Path) -> int:
    return sum(1 for rec in _read_jsonl(path) if "error" in rec)


def check_pipeline(pipeline: str, out: Path, fx: Fixture, stdout: str,
                   recording: bool = False) -> tuple[list[str], int, int]:
    """(problems, samples that failed, samples kept by curation)."""
    rules = fx.samples(pipeline, recording)
    attempts = fx.spec.max_attempts
    if pipeline == "eval":
        return check_eval(out, rules, attempts), error_records(out / "trajectories.jsonl"), 0
    if pipeline == "oracle":
        return check_oracle(out, rules, attempts), error_records(out / "trajectories.jsonl"), 0
    if pipeline == "curate_sft":
        printed = None
        for line in stdout.splitlines():
            if line.startswith("kept ") and " failed " in line:
                printed = int(line.rsplit("failed ", 1)[1])
        if printed is None:
            return ["curate-sft printed no failure count"], 0, 0
        return check_curation(out / "sft_corpus.jsonl", rules, attempts, "sft", printed)
    return check_curation(out / "rl_corpus.jsonl", rules, attempts, "rl", None)
