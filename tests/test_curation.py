import itertools
import json
import threading
import time

import pytest

from conftest import request_question, request_stage
from vtagent.backends import FunctionBackend, ScriptedBackend
from vtagent.curation import (default_judge, filter_rl_corpus, generate_sft_corpus)
from vtagent.data_model import DatasetManifest
from vtagent.engine import EngineConfig
from vtagent.errors import BackendUnavailable
from vtagent.grammar import Answer, SelectKeyframes, parse_trajectory_text


def cfg(**kwargs):
    defaults = dict(backoff_base_s=0.0, seed=0)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def select(ids="0, 1"):
    return f"<reasoning>pick</reasoning>\n<action>select key frame: [{ids}]</action>"


def answer(text):
    return f"<reasoning>read</reasoning>\n<action>answer: {text}</action>"


class OutcomeBackend:
    """Scripted per-attempt outcomes: True -> gold answer, False -> wrong answer."""

    def __init__(self, manifest: DatasetManifest, outcomes: dict[str, list[bool]]):
        self.golds = {s.question: s.gold_answers[0] for s in manifest.samples}
        self.outcomes = {q: list(o) for q, o in outcomes.items()}
        self.backend_id = "outcomes"

    def complete(self, request):
        from conftest import request_question
        question = request_question(request)
        if request_stage(request) == "anchor":
            return select()
        ok = self.outcomes[question].pop(0)
        return answer(self.golds[question] if ok else "definitely wrong")


class TestJudge:
    def test_exact_or_anls(self):
        assert default_judge("lisboa", ["Lisboa"])
        assert default_judge("helo", ["hello"])  # anls 0.8 >= 0.5
        assert not default_judge("xyz", ["hello"])


class TestSftCorpus:
    def test_first_attempt_correct(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=3)
        backend = oracle_backend_factory(manifest)
        records, stats = generate_sft_corpus(manifest, backend, cfg(),
                                             out_path=tmp_path / "sft.jsonl")
        assert stats.kept == 3 and stats.dropped == 0
        assert all(r.attempts == 1 for r in records)

    def test_target_round_trips_and_passes_judge(self, manifest_factory,
                                                 oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=2)
        records, _ = generate_sft_corpus(manifest, oracle_backend_factory(manifest), cfg())
        by_id = {s.sample_id: s for s in manifest.samples}
        for rec in records:
            turns = parse_trajectory_text(rec.target)
            assert isinstance(turns[0].action, SelectKeyframes)
            assert isinstance(turns[1].action, Answer)
            assert default_judge(turns[1].action.text, by_id[rec.sample_id].gold_answers)

    def test_never_correct_dropped(self, manifest_factory):
        manifest = manifest_factory(n_samples=1)
        question = manifest.samples[0].question
        backend = OutcomeBackend(manifest, {question: [False] * 5})
        records, stats = generate_sft_corpus(manifest, backend, cfg(max_attempts=5))
        assert records == [] and stats.dropped == 1

    def test_correct_answer_with_fallback_keyframes_rejected(self, manifest_factory):
        manifest = manifest_factory(n_samples=1)
        gold = manifest.samples[0].gold_answers[0]
        # attempt 1: unparsable turn 1 -> fallback -> rejected even though answer correct
        # attempt 2: valid selection and correct answer -> accepted
        backend = ScriptedBackend(["garbage", answer(gold), select(), answer(gold)])
        records, stats = generate_sft_corpus(manifest, backend, cfg(max_attempts=5))
        assert stats.kept == 1
        assert records[0].attempts == 2

    def test_resume_adds_zero(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=3)
        out = tmp_path / "sft.jsonl"
        generate_sft_corpus(manifest, oracle_backend_factory(manifest), cfg(), out_path=out)
        size = out.read_bytes()
        records, stats = generate_sft_corpus(manifest, oracle_backend_factory(manifest),
                                             cfg(), out_path=out)
        assert records == [] and stats.skipped == 3
        assert out.read_bytes() == size


class TestRlCorpus:
    def test_mixed_retained_counts(self, manifest_factory):
        manifest = manifest_factory(n_samples=1)
        question = manifest.samples[0].question
        backend = OutcomeBackend(manifest, {question: [True, False, True, False, False]})
        records, _ = filter_rl_corpus(manifest, backend, cfg(max_attempts=5))
        assert len(records) == 1
        assert records[0].correct_count == 2

    @pytest.mark.parametrize("pattern", list(itertools.product([False, True], repeat=5)))
    def test_exhaustive_retention_predicate(self, manifest_factory, pattern):
        manifest = manifest_factory(n_samples=1)
        question = manifest.samples[0].question
        backend = OutcomeBackend(manifest, {question: list(pattern)})
        records, _ = filter_rl_corpus(manifest, backend, cfg(max_attempts=5))
        retained = bool(records)
        assert retained == (0 < sum(pattern) < 5)
        if retained:
            assert records[0].correct_count == sum(pattern)

    def test_fallback_answers_count_as_incorrect(self, manifest_factory):
        manifest = manifest_factory(n_samples=1)
        gold = manifest.samples[0].gold_answers[0]
        outcomes = [True, False, True, False, False]

        def fn(request):  # anchoring never parses, so every episode falls back
            if request_stage(request) == "anchor":
                return "garbage"
            return answer(gold if outcomes.pop(0) else "definitely wrong")

        records, stats = filter_rl_corpus(manifest, FunctionBackend(fn), cfg(max_attempts=5))
        assert records == [] and stats.dropped == 1
        assert outcomes == []  # every episode ran

    def test_resume_adds_zero(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2)
        outcomes = {s.question: [True, False, True, False, False] for s in manifest.samples}
        out = tmp_path / "rl.jsonl"
        filter_rl_corpus(manifest, OutcomeBackend(manifest, dict(outcomes)),
                         cfg(max_attempts=5), out_path=out)
        size = out.read_bytes()
        records, stats = filter_rl_corpus(manifest, OutcomeBackend(manifest, dict(outcomes)),
                                          cfg(max_attempts=5), out_path=out)
        assert records == [] and stats.skipped == 2
        assert out.read_bytes() == size


class SeededBackend:
    """Outcome is a pure function of (question, seed), so any schedule of the
    same requests gives the same answers; also tracks peak calls in flight."""

    def __init__(self, manifest: DatasetManifest):
        self.golds = {s.question: s.gold_answers[0] for s in manifest.samples}
        self.down = manifest.samples[-1].question  # one sample fails outright
        self.backend_id = "seeded"
        self._lock = threading.Lock()
        self.inflight = self.peak = 0

    def complete(self, request):
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(0.002)
            question = request_question(request)
            if question == self.down:
                raise BackendUnavailable("down")
            roll = (request.seed + len(question)) % 5
            if request_stage(request) == "anchor":
                return "garbage" if roll == 0 else select()
            return answer(self.golds[question] if roll % 2 else "definitely wrong")
        finally:
            with self._lock:
                self.inflight -= 1


@pytest.mark.parametrize("curate", [generate_sft_corpus, filter_rl_corpus])
def test_output_identical_across_parallelism(curate, manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=12)
    outputs, stats, peaks = [], [], []
    for par in (1, 8):
        backend = SeededBackend(manifest)
        out = tmp_path / f"p{par}.jsonl"
        _, st = curate(manifest, backend, cfg(parallelism=par, temperature=1.0),
                       out_path=out)
        outputs.append(out.read_bytes())
        stats.append(st)
        peaks.append(backend.peak)
    assert outputs[0] == outputs[1]
    assert stats[0] == stats[1]
    assert stats[0].kept and stats[0].dropped and stats[0].failed == 1
    assert peaks[0] == 1 and peaks[1] > 1  # parallelism is honoured


@pytest.mark.parametrize("curate", [generate_sft_corpus, filter_rl_corpus])
def test_curation_decodes_at_temperature_one(curate, manifest_factory):
    manifest = manifest_factory(n_samples=2)
    temperatures = []

    def fn(request):
        temperatures.append(request.temperature)
        return select() if request_stage(request) == "anchor" else answer("definitely wrong")

    backend = FunctionBackend(fn)
    _, stats = curate(manifest, backend, cfg(temperature=0.0, max_attempts=3))
    assert stats.dropped == 2
    assert set(temperatures) == {1.0}
    # every attempt fails the judge, so both curations run all max_attempts episodes
    assert backend.calls == 2 * 3 * 2


def test_rl_runs_exactly_max_attempts_episodes(manifest_factory):
    manifest = manifest_factory(n_samples=1)
    outcomes = {manifest.samples[0].question: [True, False, True, False, True, True]}
    backend = OutcomeBackend(manifest, outcomes)
    records, _ = filter_rl_corpus(manifest, backend, cfg(max_attempts=4))
    (record,) = records
    assert len(record.attempt_answers) == 4 and record.correct_count == 2
    assert backend.outcomes[manifest.samples[0].question] == [True, True]  # two unused
