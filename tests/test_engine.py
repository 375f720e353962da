import json
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import (request_image_count, request_question, request_stage,
                      write_manifest_file)
from vtagent import cli, engine
from vtagent.backends import (FunctionBackend, GenerationRequest, ImagePart,
                              RecordingBackend, ReplayBackend, ScriptedBackend, TextPart,
                              TranscriptStore, request_digest)
from vtagent.data_model import (DatasetManifest, FrameRef, Sample, SamplingPolicy,
                                load_manifest, sample_frames)
from vtagent.engine import (EngineConfig, build_anchor_prompt, build_answer_prompt,
                            complete_with_retry, derive_seed, read_log, run_batch,
                            run_episode, trajectory_record)
from vtagent.errors import BackendUnavailable, ConfigError, MalformedRecord, VtagentError
from vtagent.grammar import Answer, KeyframeSet, SelectKeyframes, Turn, render_turn
from vtagent.reporting import score_records


@pytest.mark.parametrize("setting, value", [
    ("cap", 0), ("parallelism", 0), ("max_attempts", 0), ("temperature", float("nan")),
    ("temperature", -1.0), ("fallback", "bogus")])
def test_config_rejects_a_bad_value_when_built(setting, value):
    with pytest.raises(ConfigError, match=f"{setting} must be"):
        EngineConfig(**{setting: value})


class TestPrompts:
    def test_anchor_prompt_shape(self, sample_factory):
        sample = sample_factory(n_frames=4)
        (msg,) = build_anchor_prompt(sample)
        labels = [p.text for p in msg.parts if isinstance(p, TextPart)]
        images = [p for p in msg.parts if isinstance(p, ImagePart)]
        assert len(images) == 4
        assert [f"Frame {i}:" in labels for i in range(4)] == [True] * 4
        # label immediately precedes its image, index order
        for i, part in enumerate(msg.parts):
            if isinstance(part, ImagePart):
                assert msg.parts[i - 1] == TextPart(f"Frame {part.index}:")
        assert sum(1 for t in labels if sample.question in t) == 1

    def test_answer_prompt_only_keyframes(self, sample_factory):
        sample = sample_factory(n_frames=10)
        turn1 = Turn("saw it", SelectKeyframes((3, 7)))
        messages = build_answer_prompt(sample, turn1, KeyframeSet(ids=(3, 7)))
        assert messages[0].role == "assistant"
        # turn 1 carried back byte-exact in canonical form (reasoning and action)
        assert messages[0].parts[0] == TextPart(render_turn(turn1))
        user_images = [p for p in messages[1].parts if isinstance(p, ImagePart)]
        assert [p.index for p in user_images] == [3, 7]

    def test_sampled_frames_get_parts_of_their_own(self, sample_factory):
        sample = sample_factory(n_frames=8)
        build_anchor_prompt(sample)  # fills each FrameRef's parts
        sampled = sample_frames(sample, SamplingPolicy.uniform(4))
        (msg,) = build_anchor_prompt(sampled)
        assert [p.text for p in msg.parts[1:-1:2]] == [f"Frame {i}:" for i in range(4)]
        images = msg.parts[2:-1:2]
        assert [p.index for p in images] == [0, 1, 2, 3]
        assert [p.path for p in images] == [sample.frames[i].source_path for i in (0, 2, 4, 7)]
        assert sampled.frames[1].prompt_parts == (TextPart("Frame 1:"), images[1])
        assert sample.frames[2].prompt_parts[0] == TextPart("Frame 2:")

    def test_samples_of_one_video_share_frame_parts(self, sample_factory, tmp_path):
        video = sample_factory(sample_id="v", video_id="v1", n_frames=3)
        other = sample_factory(sample_id="w", video_id="v2", n_frames=3)
        q0, q1 = (replace(video, sample_id=f"q{i}", question=f"question {i}?") for i in range(2))
        # a question about another video between them: only their FrameRefs tie them
        path = write_manifest_file(DatasetManifest(samples=(q0, other, q1)), tmp_path / "m.jsonl")
        for samples, n in ((load_manifest(path).samples, 3),
                           (cli._load_sampled_manifest(cli.RunConfig(frames=2), path).samples, 2)):
            a, b = (build_anchor_prompt(s)[0].parts for s in samples[::2])
            # the instruction and the question are per prompt, the frame parts per FrameRef
            assert [pa is pb for pa, pb in zip(a, b)] == [False, *[True] * (2 * n), False]

    def test_golden_prompt_digests(self):
        """sha256 digests of engine-built prompts, computed before frame parts
        were kept on their FrameRefs: recorded stores are keyed by them."""
        sample = Sample(sample_id="g0", video_id="v0",
                        frames=tuple(FrameRef(i, f"frames/v0/{i:04d}.png") for i in range(3)),
                        question='What does the "EXIT" sign say?', gold_answers=("exit",))
        turn1 = Turn("the sign is in frame 2", SelectKeyframes((0, 2)))
        for _ in range(2):  # digests of parts built now and of the kept ones
            anchor = GenerationRequest(messages=build_anchor_prompt(sample), seed=11)
            answer = GenerationRequest(
                messages=build_answer_prompt(sample, turn1, KeyframeSet(ids=(0, 2))), seed=12)
            assert request_digest(anchor) == (
                "61173108fc3b2362fdb93e95da3b9c4f522e703fb8b0931f0ab7f495ac718ec0")
            assert request_digest(answer) == (
                "ddc20f70ed579981fa5625cae29d9c6ed8e53a47fe8b5a3bbffbc625aca7a812")


def valid_select(ids="0, 2"):
    return f"<reasoning>r</reasoning>\n<action>select key frame: [{ids}]</action>"


def valid_answer(text="lisboa"):
    return f"<reasoning>r</reasoning>\n<action>answer: {text}</action>"


class TestRunEpisode:
    def test_happy_path(self, sample_factory):
        sample = sample_factory(n_frames=4)
        backend = ScriptedBackend([valid_select(), valid_answer()])
        traj = run_episode(sample, backend, EngineConfig())
        assert not traj.used_fallback
        assert traj.attempts_turn1 == 1 and traj.attempts_turn2 == 1
        assert traj.keyframes.ids == (0, 2)
        assert traj.turn2.action == Answer("lisboa")

    def test_engine_does_not_judge(self, sample_factory):
        sample = sample_factory(answers=("Lisboa",))
        backend = ScriptedBackend([valid_select(), valid_answer("lisboa")])
        traj = run_episode(sample, backend, EngineConfig())
        assert traj.turn2.action.text == "lisboa"  # correctness is downstream

    def test_uniform_fallback_after_garbage(self, sample_factory):
        sample = sample_factory(n_frames=10)
        backend = ScriptedBackend(["garbage"] * 5 + [valid_answer("x")])
        config = EngineConfig(max_attempts=5, cap=4)
        traj = run_episode(sample, backend, config)
        assert traj.used_fallback
        assert traj.attempts_turn1 == 5
        assert traj.keyframes.ids == (0, 3, 6, 9)  # uniformly spaced, cap 4
        assert traj.turn2.action == Answer("x")

    def test_direct_fallback(self, sample_factory):
        sample = sample_factory(n_frames=6)
        backend = ScriptedBackend(["junk"] * 2 + [valid_answer("direct")])
        config = EngineConfig(max_attempts=2, fallback="direct")
        traj = run_episode(sample, backend, config)
        assert traj.used_fallback
        assert traj.turn2.action == Answer("direct")
        assert traj.keyframes.ids == tuple(range(6))

    def test_turn2_persistent_failure_empty_answer(self, sample_factory):
        sample = sample_factory()
        backend = ScriptedBackend([valid_select()] + ["nonsense"] * 3)
        traj = run_episode(sample, backend, EngineConfig(max_attempts=3))
        assert traj.used_fallback
        assert traj.turn2.action == Answer("")

    def test_backend_error_propagates_after_retries(self, sample_factory):
        sample = sample_factory()
        calls = []

        def failing(request):
            calls.append(1)
            raise BackendUnavailable("down")

        backend = FunctionBackend(lambda r: failing(r))
        with pytest.raises(BackendUnavailable):
            run_episode(sample, backend, EngineConfig(max_attempts=3))
        assert len(calls) == 3

    # each shape: config, replies in call order, then the (stage, attempt) of
    # every request, attempts per turn and used_fallback
    SHAPES = {
        "anchored": (
            {}, [valid_answer(), valid_select("1, 4"), "nonsense", valid_answer()],
            [("anchor", 0), ("anchor", 1), ("answer", 0), ("answer", 1)], (2, 2), False),
        "uniform_fallback": (
            {}, ["nonsense", valid_select("99"), valid_answer(), valid_answer()],
            [("anchor", 0), ("anchor", 1), ("anchor", 2), ("answer", 0)], (3, 1), True),
        "direct_fallback": (
            {"fallback": "direct"}, ["nonsense"] * 3 + [valid_select(), valid_answer()],
            [("anchor", 0), ("anchor", 1), ("anchor", 2), ("direct", 0), ("direct", 1)],
            (3, 2), True),
        "answer_exhausted": (
            {}, [valid_select(), "nonsense", "<action>answer:</action>", valid_select()],
            [("anchor", 0), ("answer", 0), ("answer", 1), ("answer", 2)], (1, 3), True),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_episode_shape_pins_requests(self, sample_factory, shape):
        overrides, replies, calls, attempts, used_fallback = self.SHAPES[shape]
        sample = sample_factory(n_frames=6)
        queue, seen = list(replies), []

        def fn(request):
            seen.append(request)
            return queue.pop(0)

        traj = run_episode(sample, FunctionBackend(fn),
                           EngineConfig(max_attempts=3, seed=11, **overrides))
        assert [(request_stage(r), r.seed) for r in seen] == \
            [(stage, derive_seed(11, sample.sample_id, stage, k)) for stage, k in calls]
        assert (traj.attempts_turn1, traj.attempts_turn2) == attempts
        assert traj.used_fallback is used_fallback
        assert len(traj.transcript_digests) == sum(attempts)
        assert traj.transcript_digests == tuple(request_digest(r) for r in seen)
        assert not queue

    def test_turn2_image_count_equals_selection(self, sample_factory):
        sample = sample_factory(n_frames=8)
        seen = []

        def fn(request):
            seen.append(request)
            if request_stage(request) == "anchor":
                return valid_select("1, 4, 6")
            return valid_answer()

        traj = run_episode(sample, FunctionBackend(fn), EngineConfig())
        answer_requests = [r for r in seen if request_stage(r) == "answer"]
        assert request_image_count(answer_requests[0]) == 3
        assert set(traj.keyframes.ids) <= {f.index for f in sample.frames}


@pytest.mark.parametrize("fallback", ["direct", "uniform"])
def test_fallback_episode_scores_no_hit(sample_factory, fallback):
    """An episode whose anchoring fell back chose no keyframes, so its hit is
    undefined whichever frames the fallback answered from: under direct, all
    8 (which hold the annotated frame 5); under uniform, 0 and 7."""
    sample = sample_factory(n_frames=8, keyframes=[5])
    manifest = DatasetManifest(samples=(sample,))
    config = EngineConfig(cap=2, max_attempts=1, fallback=fallback)
    records = [trajectory_record(run_episode(sample, ScriptedBackend(replies), config))
               for replies in ([valid_select("5"), valid_answer("stop")],
                               ["no action block", valid_answer("stop")])]
    assert records[1]["turn1_raw"] == ""
    anchored, fell_back = score_records(manifest, records)
    assert anchored.hit is True
    assert fell_back.hit is None and fell_back.accuracy == 1


class TestCompleteWithRetry:
    def test_retry_after_then_exponential_backoff(self, sample_factory, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(engine, "BACKOFF_BASE_S", 10)
        errors = [BackendUnavailable("rate limited (429)", retry_after=0.0),
                  BackendUnavailable("HTTP 503")]

        def fn(request):
            if errors:
                raise errors.pop(0)
            return "ok"

        request = GenerationRequest(messages=build_anchor_prompt(sample_factory()))
        assert complete_with_retry(FunctionBackend(fn), request, EngineConfig()) == "ok"
        assert sleeps == [0.0, 20]  # Retry-After, then BACKOFF_BASE_S * 2 ** 1

    def test_every_wait_is_capped(self, sample_factory, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(engine, "BACKOFF_BASE_S", 0.1)
        errors = [BackendUnavailable("rate limited (429)", retry_after=1e20)]

        def fn(request):
            raise errors.pop() if errors else BackendUnavailable("HTTP 503")

        request = GenerationRequest(messages=build_anchor_prompt(sample_factory()))
        with pytest.raises(BackendUnavailable, match="HTTP 503"):
            complete_with_retry(FunctionBackend(fn), request, EngineConfig(max_attempts=40))
        # the Retry-After, then 0.1 s doubling from the second try on
        assert sleeps == [engine.MAX_WAIT_S] + [min(engine.MAX_WAIT_S, 0.1 * 2 ** k)
                                                for k in range(1, 39)]


class TestRunBatch:
    def oracle(self, manifest, oracle_backend_factory):
        return oracle_backend_factory(manifest)

    def test_order_and_count(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=10)
        backend = oracle_backend_factory(manifest)
        records = run_batch(manifest, backend, EngineConfig(parallelism=4),
                            tmp_path / "log.jsonl")
        assert [r["sample_id"] for r in records] == [s.sample_id for s in manifest.samples]
        logged = read_log(tmp_path / "log.jsonl")
        assert [r["sample_id"] for _, r in logged] == [s.sample_id for s in manifest.samples]

    def test_resume_skips_logged(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=6)
        backend = oracle_backend_factory(manifest)
        log = tmp_path / "log.jsonl"
        half = replace(manifest, samples=manifest.samples[:3])
        run_batch(half, backend, EngineConfig(), log)
        assert backend.calls == 6  # 2 per episode
        records = run_batch(manifest, backend, EngineConfig(), log)
        assert backend.calls == 12  # only 3 new episodes ran
        assert len(records) == 6

    def test_parallelism_invariant_with_replay(self, manifest_factory,
                                               oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=8)
        store = TranscriptStore(tmp_path / "store.jsonl")
        recording = RecordingBackend(oracle_backend_factory(manifest), store)
        run_batch(manifest, recording, EngineConfig(parallelism=2), tmp_path / "seed.jsonl")

        replay = ReplayBackend(store)
        run_batch(manifest, replay, EngineConfig(parallelism=1), tmp_path / "p1.jsonl")
        run_batch(manifest, replay, EngineConfig(parallelism=8), tmp_path / "p8.jsonl")
        assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p8.jsonl").read_bytes()

    def test_per_sample_failure_recorded(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=3)

        def flaky(request):
            raise BackendUnavailable("always down")

        records = run_batch(manifest, FunctionBackend(flaky),
                            EngineConfig(max_attempts=1), tmp_path / "log.jsonl")
        assert all("error" in r for r in records)
        assert len(records) == 3

    def test_kill_mid_run_keeps_finished_prefix(self, manifest_factory,
                                                oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=10)
        k = 4
        doomed = manifest.samples[k].question
        healthy = oracle_backend_factory(manifest)

        def dies_on_k(request):
            if request_question(request) == doomed:
                time.sleep(0.05)  # let later samples finish first
                raise RuntimeError("killed")
            return healthy.complete(request)

        log = tmp_path / "log.jsonl"
        with pytest.raises(RuntimeError):
            run_batch(manifest, FunctionBackend(dies_on_k), EngineConfig(parallelism=4), log)
        assert [r["sample_id"] for _, r in read_log(log)] == \
            [s.sample_id for s in manifest.samples[:k]]

        backend = oracle_backend_factory(manifest)
        records = run_batch(manifest, backend, EngineConfig(parallelism=4), log)
        assert backend.calls == 2 * (len(manifest.samples) - k)
        assert [r["sample_id"] for r in records] == [s.sample_id for s in manifest.samples]
        assert [r["sample_id"] for _, r in read_log(log)] == \
            [s.sample_id for s in manifest.samples]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_no_sample_begins_after_a_fatal_one(self, manifest_factory, tmp_path,
                                                 parallelism):
        manifest = manifest_factory(n_samples=6, n_frames=1)
        ran = []
        q001_failing = threading.Event()

        def fn(sample):
            ran.append(sample.sample_id)
            if sample.sample_id == "q000" and parallelism == 2:
                # hold this worker until q001 has failed, then give the failure
                # time to stop the run before the worker takes another sample
                assert q001_failing.wait(timeout=10)
                time.sleep(0.05)
            if sample.sample_id == "q001":
                q001_failing.set()
                raise VtagentError("fatal")
            return {"sample_id": sample.sample_id}

        log = tmp_path / "log.jsonl"
        with pytest.raises(VtagentError, match="fatal"):
            engine.run_units([engine.Job(manifest.samples, fn, log)], parallelism)
        assert sorted(ran) == ["q000", "q001"]
        assert [r["sample_id"] for _, r in read_log(log)] == ["q000"]

    def test_no_unit_of_either_job_begins_after_a_fatal_one(self, tmp_path):
        """Two jobs in one pool of two workers: a0 is done at once and its
        worker takes b0, and a1 fails while b0 runs. b0 finishes and is
        logged; b1 and b2, not yet begun, never run."""
        ran = []
        b0_running, a1_failing = threading.Event(), threading.Event()

        def fn(sample):
            ran.append(sample.sample_id)
            if sample.sample_id == "a1":
                assert b0_running.wait(timeout=10)
                a1_failing.set()
                raise VtagentError("fatal")
            if sample.sample_id == "b0":
                b0_running.set()
                # give the failure time to stop the run before a worker is free
                assert a1_failing.wait(timeout=10)
                time.sleep(0.05)
            return {"sample_id": sample.sample_id}

        def job(name: str, n: int) -> engine.Job:
            samples = [SimpleNamespace(sample_id=f"{name}{i}") for i in range(n)]
            return engine.Job(samples, fn, tmp_path / f"{name}.jsonl")

        with pytest.raises(VtagentError, match="fatal"):
            engine.run_units([job("a", 2), job("b", 3)], 2)
        assert sorted(ran) == ["a0", "a1", "b0"]
        assert [r["sample_id"] for _, r in read_log(tmp_path / "a.jsonl")] == ["a0"]
        assert [r["sample_id"] for _, r in read_log(tmp_path / "b.jsonl")] == ["b0"]

    def test_jobs_sharing_a_pool_log_every_record_in_order(self, tmp_path):
        """More workers than cores and a short switch interval: every log
        still holds each of its samples once, in manifest order."""
        def job(name: str) -> engine.Job:
            samples = [SimpleNamespace(sample_id=f"{name}{i:03d}") for i in range(300)]
            return engine.Job(samples, lambda sample: {"sample_id": sample.sample_id,
                                                       "job": name},
                              tmp_path / f"{name}.jsonl")

        jobs = [job(name) for name in "abc"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = engine.run_units(jobs, 8)
        finally:
            sys.setswitchinterval(interval)
        for name, j, records in zip("abc", jobs, results):
            want = [{"sample_id": s.sample_id, "job": name} for s in j.samples]
            assert records == want
            assert [r for _, r in read_log(j.log_path)] == want

    def test_replay_miss_fails_without_backoff(self, manifest_factory, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        manifest = manifest_factory(n_samples=1)
        replay = ReplayBackend(TranscriptStore(tmp_path / "empty.jsonl"))
        records = run_batch(manifest, replay, EngineConfig(max_attempts=5),
                            tmp_path / "log.jsonl")
        assert records == [{"sample_id": "q000", "error": "cache miss"}]
        assert sleeps == []

    def test_exhausted_script_fails_without_backoff(self, manifest_factory, tmp_path,
                                                    monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        manifest = manifest_factory(n_samples=3)
        gold = manifest.samples[0].gold_answers[0]
        script = ScriptedBackend([
            "<reasoning>p</reasoning>\n<action>select key frame: [0]</action>",
            f"<reasoning>r</reasoning>\n<action>answer: {gold}</action>"])
        records = run_batch(manifest, script, EngineConfig(max_attempts=5),
                            tmp_path / "log.jsonl")
        assert records[0]["sample_id"] == "q000" and "error" not in records[0]
        assert records[1:] == [{"sample_id": s.sample_id, "error": "script exhausted"}
                               for s in manifest.samples[1:]]
        assert [r for _, r in read_log(tmp_path / "log.jsonl")] == records
        assert sleeps == [] and script.calls == 4

    def test_resume_after_torn_last_line(self, manifest_factory, oracle_backend_factory,
                                         tmp_path):
        manifest = manifest_factory(n_samples=3)
        log = tmp_path / "log.jsonl"
        run_batch(manifest, oracle_backend_factory(manifest), EngineConfig(), log)
        whole = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text(whole[0] + whole[1] + whole[2][:60], encoding="utf-8")

        backend = oracle_backend_factory(manifest)
        records = run_batch(manifest, backend, EngineConfig(), log)
        assert backend.calls == 2  # one episode: the torn sample's
        assert [r["sample_id"] for r in records] == [s.sample_id for s in manifest.samples]
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 3 and all(l.endswith("\n") for l in lines)
        assert [json.loads(l) for l in lines] == records

    def test_run_log_names_a_bad_record_by_its_line(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"sample_id": "a"}\n\n\t\n{"foo": 1}\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as error:
            engine.run_units([engine.Job((), lambda sample: {}, log)], 1)
        assert error.value.line_no == 4 and "has no 'sample_id'" in error.value.reason

    def test_whole_last_line_without_newline_kept(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"sample_id": "a"}\n{"sample_id": "b"}', encoding="utf-8")
        assert list(read_log(log)) == [(1, {"sample_id": "a"}), (2, {"sample_id": "b"})]
        assert log.read_text(encoding="utf-8").endswith('"b"}\n')
