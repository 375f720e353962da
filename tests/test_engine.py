import json
import time
from dataclasses import replace

import pytest

from conftest import request_image_count, request_question, request_stage
from vtagent.backends import (FunctionBackend, ImagePart, RecordingBackend,
                              ReplayBackend, ScriptedBackend, TextPart, TranscriptStore)
from vtagent.engine import (EngineConfig, build_anchor_prompt, build_answer_prompt,
                            read_log, run_batch, run_episode)
from vtagent.errors import BackendUnavailable
from vtagent.grammar import Answer, KeyframeSet, SelectKeyframes, Turn, render_turn


def fast_config(**kwargs):
    defaults = dict(backoff_base_s=0.0, seed=0)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


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


def valid_select(ids="0, 2"):
    return f"<reasoning>r</reasoning>\n<action>select key frame: [{ids}]</action>"


def valid_answer(text="lisboa"):
    return f"<reasoning>r</reasoning>\n<action>answer: {text}</action>"


class TestRunEpisode:
    def test_happy_path(self, sample_factory):
        sample = sample_factory(n_frames=4)
        backend = ScriptedBackend([valid_select(), valid_answer()])
        traj = run_episode(sample, backend, fast_config())
        assert not traj.used_fallback
        assert traj.attempts_turn1 == 1 and traj.attempts_turn2 == 1
        assert traj.keyframes.ids == (0, 2)
        assert traj.turn2.action == Answer("lisboa")

    def test_engine_does_not_judge(self, sample_factory):
        sample = sample_factory(answers=("Lisboa",))
        backend = ScriptedBackend([valid_select(), valid_answer("lisboa")])
        traj = run_episode(sample, backend, fast_config())
        assert traj.turn2.action.text == "lisboa"  # correctness is downstream

    def test_uniform_fallback_after_garbage(self, sample_factory):
        sample = sample_factory(n_frames=10)
        backend = ScriptedBackend(["garbage"] * 5 + [valid_answer("x")])
        config = fast_config(max_attempts=5, keyframe_cap=4)
        traj = run_episode(sample, backend, config)
        assert traj.used_fallback
        assert traj.attempts_turn1 == 5
        assert traj.keyframes.ids == (0, 3, 6, 9)  # uniformly spaced, cap 4
        assert traj.turn2.action == Answer("x")

    def test_direct_fallback(self, sample_factory):
        sample = sample_factory(n_frames=6)
        backend = ScriptedBackend(["junk"] * 2 + [valid_answer("direct")])
        config = fast_config(max_attempts=2, fallback_policy="direct")
        traj = run_episode(sample, backend, config)
        assert traj.used_fallback
        assert traj.turn2.action == Answer("direct")
        assert traj.keyframes.ids == tuple(range(6))

    def test_turn2_persistent_failure_empty_answer(self, sample_factory):
        sample = sample_factory()
        backend = ScriptedBackend([valid_select()] + ["nonsense"] * 3)
        traj = run_episode(sample, backend, fast_config(max_attempts=3))
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
            run_episode(sample, backend, fast_config(max_attempts=3))
        assert len(calls) == 3

    def test_turn2_image_count_equals_selection(self, sample_factory):
        sample = sample_factory(n_frames=8)
        seen = []

        def fn(request):
            seen.append(request)
            if request_stage(request) == "anchor":
                return valid_select("1, 4, 6")
            return valid_answer()

        traj = run_episode(sample, FunctionBackend(fn), fast_config())
        answer_requests = [r for r in seen if request_stage(r) == "answer"]
        assert request_image_count(answer_requests[0]) == 3
        assert set(traj.keyframes.ids) <= {f.index for f in sample.frames}


class TestRunBatch:
    def oracle(self, manifest, oracle_backend_factory):
        return oracle_backend_factory(manifest)

    def test_order_and_count(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=10)
        backend = oracle_backend_factory(manifest)
        records = run_batch(manifest, backend, fast_config(parallelism=4),
                            tmp_path / "log.jsonl")
        assert [r["sample_id"] for r in records] == [s.sample_id for s in manifest.samples]
        logged = read_log(tmp_path / "log.jsonl")
        assert [r["sample_id"] for r in logged] == [s.sample_id for s in manifest.samples]

    def test_resume_skips_logged(self, manifest_factory, oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=6)
        backend = oracle_backend_factory(manifest)
        log = tmp_path / "log.jsonl"
        half = replace(manifest, samples=manifest.samples[:3])
        run_batch(half, backend, fast_config(), log)
        assert backend.calls == 6  # 2 per episode
        records = run_batch(manifest, backend, fast_config(), log)
        assert backend.calls == 12  # only 3 new episodes ran
        assert len(records) == 6

    def test_parallelism_invariant_with_replay(self, manifest_factory,
                                               oracle_backend_factory, tmp_path):
        manifest = manifest_factory(n_samples=8)
        store = TranscriptStore(tmp_path / "store.jsonl")
        recording = RecordingBackend(oracle_backend_factory(manifest), store)
        run_batch(manifest, recording, fast_config(parallelism=2), tmp_path / "seed.jsonl")

        replay = ReplayBackend(store)
        run_batch(manifest, replay, fast_config(parallelism=1), tmp_path / "p1.jsonl")
        run_batch(manifest, replay, fast_config(parallelism=8), tmp_path / "p8.jsonl")
        assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p8.jsonl").read_bytes()

    def test_per_sample_failure_recorded(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=3)

        def flaky(request):
            raise BackendUnavailable("always down")

        records = run_batch(manifest, FunctionBackend(flaky),
                            fast_config(max_attempts=1), tmp_path / "log.jsonl")
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
            run_batch(manifest, FunctionBackend(dies_on_k), fast_config(parallelism=4), log)
        assert [r["sample_id"] for r in read_log(log)] == \
            [s.sample_id for s in manifest.samples[:k]]

        backend = oracle_backend_factory(manifest)
        records = run_batch(manifest, backend, fast_config(parallelism=4), log)
        assert backend.calls == 2 * (len(manifest.samples) - k)
        assert [r["sample_id"] for r in records] == [s.sample_id for s in manifest.samples]
        assert [r["sample_id"] for r in read_log(log)] == \
            [s.sample_id for s in manifest.samples]
