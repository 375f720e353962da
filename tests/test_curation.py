import hashlib
import itertools
import threading
import time
from collections import Counter

import pytest

from conftest import request_question, request_stage
from vtagent.backends import FunctionBackend, ScriptedBackend, read_log, request_digest
from vtagent.curation import (CurationStats, default_judge, filter_rl_corpus,
                              generate_sft_corpus, write_corpus)
from vtagent.data_model import DatasetManifest, FrameRef, Sample
from vtagent.engine import EngineConfig
from vtagent.errors import BackendUnavailable
from vtagent.grammar import Answer, SelectKeyframes, parse_trajectory_text


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
        records, stats = generate_sft_corpus(manifest, backend, EngineConfig(),
                                             tmp_path / "sft.jsonl")
        assert stats.kept == 3 and stats.dropped == 0
        assert all(r["attempts"] == 1 for r in records)

    def test_target_round_trips_and_passes_judge(self, manifest_factory,
                                                 oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=2)
        records, _ = generate_sft_corpus(manifest, oracle_backend_factory(manifest),
                                         EngineConfig(), tmp_path / "sft.jsonl")
        by_id = {s.sample_id: s for s in manifest.samples}
        for rec in records:
            turns = parse_trajectory_text(rec["target"])
            assert isinstance(turns[0].action, SelectKeyframes)
            assert isinstance(turns[1].action, Answer)
            assert default_judge(turns[1].action.text, by_id[rec["sample_id"]].gold_answers)

    def test_never_correct_dropped(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=1)
        question = manifest.samples[0].question
        backend = OutcomeBackend(manifest, {question: [False] * 5})
        records, stats = generate_sft_corpus(manifest, backend, EngineConfig(max_attempts=5),
                                             tmp_path / "sft.jsonl")
        assert records == [] and stats.dropped == 1

    def test_correct_answer_with_fallback_keyframes_rejected(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=1)
        gold = manifest.samples[0].gold_answers[0]
        # attempt 1: unparsable turn 1 -> fallback -> rejected even though answer correct
        # attempt 2: valid selection and correct answer -> accepted
        backend = ScriptedBackend(["garbage", answer(gold), select(), answer(gold)])
        records, stats = generate_sft_corpus(manifest, backend, EngineConfig(max_attempts=5),
                                             tmp_path / "sft.jsonl")
        assert stats.kept == 1
        assert records[0]["attempts"] == 2

    def test_selection_with_dropped_ids_rejected(self, manifest_factory, tmp_path):
        # a duplicate, an out-of-range id and two ids over the cap of 2: turn 2
        # shows frames 0 and 1 only, so the raw selection is not valid supervision
        manifest = manifest_factory(n_samples=1, n_frames=4)
        gold = manifest.samples[0].gold_answers[0]
        bad = select("0, 0, 99, 1, 2, 3")
        config = EngineConfig(cap=2, max_attempts=3)
        backend = ScriptedBackend([bad, answer(gold)] * 3)
        records, stats = generate_sft_corpus(manifest, backend, config, tmp_path / "bad.jsonl")
        assert records == [] and stats == CurationStats(dropped=1)
        assert backend.calls == 6  # every attempt ran, and none was kept
        # a later attempt whose selection is valid is kept
        backend = ScriptedBackend([bad, answer(gold), select("1, 0"), answer(gold)])
        records, stats = generate_sft_corpus(manifest, backend, config, tmp_path / "later.jsonl")
        assert stats == CurationStats(kept=1) and records[0]["attempts"] == 2
        assert parse_trajectory_text(records[0]["target"])[0].action == \
            SelectKeyframes(frame_ids=(1, 0))

    def test_resume_adds_zero(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=3)
        log = tmp_path / "sft.jsonl"
        first = generate_sft_corpus(manifest, oracle_backend_factory(manifest), EngineConfig(),
                                    log)
        logged = log.read_bytes()
        backend = oracle_backend_factory(manifest)
        records, stats = generate_sft_corpus(manifest, backend, EngineConfig(), log)
        assert backend.calls == 0
        assert (records, stats) == first and stats == CurationStats(kept=3)
        assert log.read_bytes() == logged


class TestRlCorpus:
    def test_mixed_retained_counts(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=1)
        question = manifest.samples[0].question
        backend = OutcomeBackend(manifest, {question: [True, False, True, False, False]})
        records, _ = filter_rl_corpus(manifest, backend, EngineConfig(max_attempts=5),
                                      tmp_path / "rl.jsonl")
        assert len(records) == 1
        assert records[0]["correct_count"] == 2

    @pytest.mark.parametrize("pattern", list(itertools.product([False, True], repeat=5)))
    def test_exhaustive_retention_predicate(self, manifest_factory, pattern, tmp_path):
        manifest = manifest_factory(n_samples=1)
        question = manifest.samples[0].question
        backend = OutcomeBackend(manifest, {question: list(pattern)})
        records, _ = filter_rl_corpus(manifest, backend, EngineConfig(max_attempts=5),
                                      tmp_path / "rl.jsonl")
        retained = bool(records)
        assert retained == (0 < sum(pattern) < 5)
        if retained:
            assert records[0]["correct_count"] == sum(pattern)

    def test_fallback_answers_count_as_incorrect(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=1)
        gold = manifest.samples[0].gold_answers[0]
        outcomes = [True, False, True, False, False]

        def fn(request):  # anchoring never parses, so every episode falls back
            if request_stage(request) == "anchor":
                return "garbage"
            return answer(gold if outcomes.pop(0) else "definitely wrong")

        records, stats = filter_rl_corpus(manifest, FunctionBackend(fn),
                                          EngineConfig(max_attempts=5), tmp_path / "rl.jsonl")
        assert records == [] and stats.dropped == 1
        assert outcomes == []  # every episode ran

    def test_resume_adds_zero(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2)
        outcomes = {s.question: [True, False, True, False, False] for s in manifest.samples}
        log = tmp_path / "rl.jsonl"
        first = filter_rl_corpus(manifest, OutcomeBackend(manifest, dict(outcomes)),
                                 EngineConfig(max_attempts=5), log)
        logged = log.read_bytes()
        backend = OutcomeBackend(manifest, dict(outcomes))
        records, stats = filter_rl_corpus(manifest, backend, EngineConfig(max_attempts=5), log)
        assert backend.outcomes == outcomes  # no episode ran
        assert (records, stats) == first and stats == CurationStats(kept=2)
        assert log.read_bytes() == logged


class SeededBackend:
    """Outcome is a pure function of (question, seed), so any schedule of the
    same requests gives the same answers; also tracks peak calls in flight
    and counts the calls per question."""

    def __init__(self, manifest: DatasetManifest, killed: str = ""):
        self.golds = {s.question: s.gold_answers[0] for s in manifest.samples}
        self.down = manifest.samples[-1].question  # one sample fails outright
        self.killed = killed  # this question's first call stops the run
        self.backend_id = "seeded"
        self._lock = threading.Lock()
        self.inflight = self.peak = 0
        self.asked: Counter = Counter()

    def complete(self, request):
        question = request_question(request)
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            self.asked[question] += 1
        try:
            time.sleep(0.002)
            if question == self.killed:
                time.sleep(0.05)  # let later samples finish first
                raise RuntimeError("killed")
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
        log, corpus = tmp_path / f"p{par}.log.jsonl", tmp_path / f"p{par}.jsonl"
        lines, st = curate(manifest, backend, EngineConfig(parallelism=par, temperature=1.0),
                           log)
        write_corpus(lines, corpus)
        outputs.append((log.read_bytes(), corpus.read_bytes()))
        stats.append(st)
        peaks.append(backend.peak)
    assert outputs[0] == outputs[1]
    assert stats[0] == stats[1]
    assert stats[0].kept and stats[0].dropped and stats[0].failed == 1
    assert peaks[0] == 1 and peaks[1] > 1  # parallelism is honoured


@pytest.mark.parametrize("curate", [generate_sft_corpus, filter_rl_corpus])
def test_curation_decodes_at_temperature_one(curate, manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=2)
    temperatures = []

    def fn(request):
        temperatures.append(request.temperature)
        return select() if request_stage(request) == "anchor" else answer("definitely wrong")

    backend = FunctionBackend(fn)
    _, stats = curate(manifest, backend, EngineConfig(temperature=0.0, max_attempts=3),
                      tmp_path / "outcomes.jsonl")
    assert stats.dropped == 2
    assert set(temperatures) == {1.0}
    # every attempt fails the judge, so both curations run all max_attempts episodes
    assert backend.calls == 2 * 3 * 2


def test_rl_runs_exactly_max_attempts_episodes(manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=1)
    outcomes = {manifest.samples[0].question: [True, False, True, False, True, True]}
    backend = OutcomeBackend(manifest, outcomes)
    records, _ = filter_rl_corpus(manifest, backend, EngineConfig(max_attempts=4),
                                  tmp_path / "rl.jsonl")
    (record,) = records
    assert len(record["attempt_answers"]) == 4 and record["correct_count"] == 2
    assert backend.outcomes[manifest.samples[0].question] == [True, True]  # two unused


@pytest.mark.parametrize("curate", [generate_sft_corpus, filter_rl_corpus])
def test_resume_after_finished_run_makes_no_call(curate, manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=3)
    kept, dropped, down = (s.question for s in manifest.samples)
    outcomes = {kept: [True, False, True, False, False], dropped: [False] * 5}

    def backend():
        inner = OutcomeBackend(manifest, outcomes)

        def fn(request):
            if request_question(request) == down:
                raise BackendUnavailable("down")
            return inner.complete(request)
        return FunctionBackend(fn)

    log, corpus = tmp_path / "outcomes.jsonl", tmp_path / "corpus.jsonl"
    lines, stats = curate(manifest, backend(), EngineConfig(max_attempts=5), log)
    write_corpus(lines, corpus)
    assert stats == CurationStats(kept=1, dropped=1, failed=1)
    assert [(r["sample_id"], r.get("outcome"), r.get("error")) for _, r in read_log(log)] == \
        [("q000", "kept", None), ("q001", "dropped", None), ("q002", None, "down")]
    before = log.read_bytes(), corpus.read_bytes()

    again = backend()
    resumed_lines, resumed = curate(manifest, again, EngineConfig(max_attempts=5), log)
    write_corpus(resumed_lines, corpus)
    assert again.calls == 0
    assert resumed == stats and resumed_lines == lines
    assert (log.read_bytes(), corpus.read_bytes()) == before


@pytest.mark.parametrize("curate", [generate_sft_corpus, filter_rl_corpus])
def test_kill_mid_run_keeps_finished_prefix(curate, manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=10)
    k = 4
    config = EngineConfig(parallelism=4, temperature=1.0)
    whole = SeededBackend(manifest)
    lines, stats = curate(manifest, whole, config, tmp_path / "whole.jsonl")
    write_corpus(lines, tmp_path / "whole.corpus.jsonl")

    log = tmp_path / "outcomes.jsonl"
    with pytest.raises(RuntimeError):
        curate(manifest, SeededBackend(manifest, killed=manifest.samples[k].question),
               config, log)
    assert [r["sample_id"] for _, r in read_log(log)] == \
        [s.sample_id for s in manifest.samples[:k]]

    rest = SeededBackend(manifest)
    resumed_lines, resumed = curate(manifest, rest, config, log)
    write_corpus(resumed_lines, tmp_path / "corpus.jsonl")
    assert rest.asked == Counter({s.question: whole.asked[s.question]
                                  for s in manifest.samples[k:]})
    assert resumed == stats
    assert log.read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
    assert (tmp_path / "corpus.jsonl").read_bytes() == \
        (tmp_path / "whole.corpus.jsonl").read_bytes()


def test_write_corpus_replaces_whole(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("stale\n", encoding="utf-8")
    write_corpus([{"sample_id": "q000", "answer": "é"}, {"sample_id": "q001"}], corpus)
    assert corpus.read_text(encoding="utf-8") == \
        '{"sample_id": "q000", "answer": "é"}\n{"sample_id": "q001"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


@pytest.mark.parametrize("curate", [generate_sft_corpus, filter_rl_corpus])
def test_episodes_reuse_one_anchor_message_per_sample(curate, tmp_path):
    """Every episode of a sample sends the same anchor Message object, and the
    requests are the ones the harness sent before it reused anything: their
    digests, joined in call order, hash to a value recorded then."""
    frames = tuple(FrameRef(i, f"frames/v0/{i:04d}.png") for i in range(4))
    manifest = DatasetManifest(samples=tuple(
        Sample(sample_id=f"g{i}", video_id="v0", frames=frames,
               question=f'What does the "EXIT" sign {i} say?', gold_answers=(f"exit {i}",))
        for i in range(2)))
    golds = {s.question: s.gold_answers[0] for s in manifest.samples}
    requests, answered = [], Counter()

    def fn(request):
        requests.append(request)
        question = request_question(request)
        if request_stage(request) == "anchor":
            return select("0, 2")
        answered[question] += 1  # the third episode's answer is the first right one
        return answer(golds[question] if answered[question] == 3 else "definitely wrong")

    _, stats = curate(manifest, FunctionBackend(fn), EngineConfig(max_attempts=3, seed=7),
                      tmp_path / "outcomes.jsonl")
    assert stats == CurationStats(kept=2)
    assert len(requests) == 2 * 3 * 2
    for question in golds:
        anchors = [r.messages[0] for r in requests
                   if request_question(r) == question and request_stage(r) == "anchor"]
        assert len(anchors) == 3 and len({id(m) for m in anchors}) == 1
    digests = "\n".join(request_digest(r) for r in requests)
    assert hashlib.sha256(digests.encode()).hexdigest() == (
        "66b55a4bfa4c3f207197302e68982aeef5ef5c3a7136e91c7d00d84092944c6a")
