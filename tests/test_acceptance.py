"""Acceptance gate: one test per release criterion, each printing a PASS line
with its runtime. Run with `pytest tests/test_acceptance.py -s` to see them.
"""

import itertools
import json
import random
import string
import time

import numpy as np
import pytest

from conftest import write_manifest_file
from vtagent import cli, grpo, oracle
from vtagent.backends import FunctionBackend, RecordingBackend, TranscriptStore
from vtagent.curation import filter_rl_corpus
from vtagent.data_model import DatasetManifest
from vtagent.engine import EngineConfig, run_batch
from vtagent.errors import MissingActionBlock, UnparsableAction
from vtagent.grammar import (Answer, KeyframeSet, SelectKeyframes, Turn, parse_turn,
                             render_turn)
from vtagent.metrics import aggregate, anls, hit, levenshtein
from vtagent.reporting import score_records


class timed:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.limit_s, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"PASS  {self.name}  ({elapsed:.2f}s)")
        else:
            print(f"FAIL  {self.name}")
        return False


def brute_lev(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(brute_lev(a[1:], b) + 1,
               brute_lev(a, b[1:]) + 1,
               brute_lev(a[1:], b[1:]) + (a[0] != b[0]))


def brute_anls(pred, golds, threshold=0.5):
    from vtagent.metrics import normalize_answer
    best = 0.0
    p = normalize_answer(pred)
    for g in golds:
        gn = normalize_answer(g)
        longest = max(len(p), len(gn))
        s = 1.0 if longest == 0 else 1.0 - brute_lev(p, gn) / longest
        best = max(best, s)
    return best if best >= threshold else 0.0


def test_anls_oracle_equivalence():
    with timed("ANLS oracle equivalence", limit_s=10):
        rng = random.Random(0)
        alphabet = string.ascii_lowercase[:6]
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            assert anls(a, [b]) == brute_anls(a, [b])
            assert levenshtein(a, b) == brute_lev(a, b)
        assert anls("helo", ["hello"]) == pytest.approx(0.8)
        assert anls("xyz", ["hello"]) == 0.0


def test_grammar_round_trip_and_fuzz():
    with timed("Grammar round-trip + fuzz", limit_s=30):
        rng = random.Random(1)
        safe = string.ascii_letters + string.digits + " .,;!?-_()[]{}'\"/:@#%&*+=\n\t"
        safe = safe.replace("<", "")

        def rand_text(max_len):
            return "".join(rng.choice(safe) for _ in range(rng.randint(0, max_len))).strip()

        for _ in range(10_000):
            reasoning = rand_text(40)
            if rng.random() < 0.5:
                ids = tuple(rng.randrange(1000) for _ in range(rng.randint(1, 10)))
                action = SelectKeyframes(ids)
            else:
                text = rand_text(30) or "x"
                action = Answer(text)
            turn = Turn(reasoning=reasoning, action=action)
            back = parse_turn(render_turn(turn))
            assert back.action == turn.action and back.reasoning == turn.reasoning

        for _ in range(100_000):
            blob = rng.randbytes(rng.randint(0, 80)).decode("utf-8", errors="replace")
            try:
                parse_turn(blob)
            except (MissingActionBlock, UnparsableAction):
                pass


def test_grpo_math():
    with timed("GRPO math (advantages, analytic grad, finite differences)", limit_s=20):
        # (a) hand-computed group advantages
        adv = grpo.group_advantages([1.5, 0.5, 0.5, 1.5], delta=1e-8)
        assert np.allclose(adv, [1, -1, -1, 1], atol=1e-6)

        vocab = tuple("abcdef")
        env = grpo.make_env(8, vocab, np.random.default_rng(3))
        rng = np.random.default_rng(5)
        d = env.frame_features.shape[1]
        policy = grpo.ToyPolicy(w_select=0.3 * rng.standard_normal(d), b_noselect=0.1,
                                w_answer=0.3 * rng.standard_normal((len(vocab), d)))

        # (b) at theta = theta_old the surrogate gradient is the REINFORCE form
        trajs = [grpo.sample_trajectory(policy, env, rng) for _ in range(4)]
        adv = grpo.group_advantages([grpo.compute_reward(t, env) for t in trajs])
        grad = grpo.grpo_objective_grad(policy, env, trajs, adv, eps=0.2)
        expected = grpo.ToyPolicy.zeros(d, len(vocab))
        for t, a in zip(trajs, adv):
            _, g = grpo.trajectory_logp_grad(policy, env, t)
            expected.w_select += a * g.w_select / len(trajs)
            expected.b_noselect += a * g.b_noselect / len(trajs)
            expected.w_answer += a * g.w_answer / len(trajs)
        assert np.allclose(grad.to_vector(), expected.to_vector(), atol=1e-10)

        # (c) central differences at 100 random interior points
        h = 1e-5
        checked = 0
        while checked < 100:
            trajs = [grpo.sample_trajectory(policy, env, rng) for _ in range(4)]
            adv = grpo.group_advantages([grpo.compute_reward(t, env) for t in trajs])
            vec = policy.to_vector() + 0.05 * rng.standard_normal(policy.to_vector().size)
            p = grpo.ToyPolicy.from_vector(vec, d, len(vocab))
            ratios = [np.exp(grpo.trajectory_logp(p, env, t) - t.old_logp) for t in trajs]
            if any(abs(r - 0.8) < 0.02 or abs(r - 1.2) < 0.02 for r in ratios):
                continue

            def value(v):
                pol = grpo.ToyPolicy.from_vector(v, d, len(vocab))
                new_lp = [grpo.trajectory_logp(pol, env, t) for t in trajs]
                return grpo.grpo_objective(new_lp, [t.old_logp for t in trajs], adv, 0.2)

            analytic = grpo.grpo_objective_grad(p, env, trajs, adv, eps=0.2).to_vector()
            numeric = np.zeros_like(vec)
            for i in range(vec.size):
                up, down = vec.copy(), vec.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (value(up) - value(down)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-4
            checked += 1


def test_toy_grpo_learning():
    with timed("Toy GRPO learning (stand-in for full-scale benchmark tables)", limit_s=60):
        env = grpo.make_env(8, tuple("abcdef"), np.random.default_rng(3))
        config = grpo.TrainConfig(steps=500, group_size=4, eps=0.2, lr=0.1, seed=7)
        a = grpo.train([env], config)
        b = grpo.train([env], config)
        chance = grpo.chance_baseline(env)
        assert chance < 0.2
        assert a.final_mean_acc(50) >= 0.9
        curves = [[(s.mean_reward, s.tool_rate, s.clip_frac) for s in r.curve] for r in (a, b)]
        assert curves[0] == curves[1]  # byte-identical across runs


def test_reward_ablation_direction():
    with timed("Reward-ablation direction (tool reward on vs off)", limit_s=120):
        rates_on, rates_off = [], []
        for seed in range(5):
            env = grpo.make_env(8, tuple("abcdef"), np.random.default_rng(100 + seed))
            on = grpo.train([env], grpo.TrainConfig(steps=300, seed=seed, tool_reward=0.5))
            off = grpo.train([env], grpo.TrainConfig(steps=300, seed=seed, tool_reward=0.0))
            rates_on.append(on.final_tool_rate(50))
            rates_off.append(off.final_tool_rate(50))
        assert np.mean(rates_on) >= np.mean(rates_off)


def _garbage_backend():
    return FunctionBackend(lambda req: "no tags at all", backend_id="garbage")


def test_protocol_end_to_end(manifest_factory, oracle_backend_factory, tmp_path):
    with timed("Protocol end-to-end (oracle vs garbage backend)", limit_s=5):
        manifest = manifest_factory(n_samples=20)
        config = EngineConfig(backoff_base_s=0.0, max_attempts=2, seed=0)

        records = run_batch(manifest, oracle_backend_factory(manifest), config,
                            tmp_path / "oracle.jsonl")
        assert all(not r["used_fallback"] for r in records)
        report = aggregate(score_records(manifest, records))
        assert report.mean_accuracy == pytest.approx(100.0)
        assert report.mean_anls == pytest.approx(100.0)

        records = run_batch(manifest, _garbage_backend(), config, tmp_path / "garbage.jsonl")
        assert all(r["used_fallback"] for r in records)
        report = aggregate(score_records(manifest, records))
        assert report.mean_accuracy == pytest.approx(0.0)


def test_rl_curation_predicate(manifest_factory):
    with timed("RL curation predicate (exhaustive 32 outcome patterns)", limit_s=60):
        retained_patterns = []
        for pattern in itertools.product([False, True], repeat=5):
            manifest = manifest_factory(n_samples=1)
            sample = manifest.samples[0]
            outcomes = list(pattern)

            def fn(req, outcomes=outcomes, gold=sample.gold_answers[0]):
                first = req.messages[-1].parts[0].text
                if "select key frame" in first:
                    return "<reasoning>p</reasoning>\n<action>select key frame: [0]</action>"
                ok = outcomes.pop(0)
                return f"<reasoning>r</reasoning>\n<action>answer: {gold if ok else 'nope'}</action>"

            records, _ = filter_rl_corpus(
                manifest, FunctionBackend(fn),
                EngineConfig(backoff_base_s=0.0, seed=0, max_attempts=5))
            if records:
                retained_patterns.append(pattern)
                assert records[0].correct_count == sum(pattern)
        assert len(retained_patterns) == 30
        assert (False,) * 5 not in retained_patterns
        assert (True,) * 5 not in retained_patterns


def test_oracle_analysis(manifest_factory):
    with timed("Oracle analysis (gap, partition, pseudo keyframes, hit)", limit_s=60):
        manifest = manifest_factory(n_samples=1, n_frames=4)
        sample = manifest.samples[0]
        gold = sample.gold_answers[0]

        def fn(req):
            from vtagent.backends import ImagePart
            first = req.messages[-1].parts[0].text
            if "select key frame" in first:
                return "<reasoning>p</reasoning>\n<action>select key frame: [2]</action>"
            images = [p for m in req.messages for p in m.parts if isinstance(p, ImagePart)]
            # only the isolated frame 2 yields the answer; video-level fails
            if len(images) == 1 and images[0].index == 2 and len(req.messages) == 1:
                return f"<reasoning>r</reasoning>\n<action>answer: {gold}</action>"
            return "<reasoning>r</reasoning>\n<action>answer: unreadable</action>"

        backend = FunctionBackend(fn)
        config = EngineConfig(backoff_base_s=0.0, max_attempts=1, seed=0)
        result = oracle.framewise_eval(sample, backend, config)
        assert oracle.pseudo_keyframes(result) == frozenset({2})

        from vtagent.engine import run_episode, trajectory_record
        video_rec = trajectory_record(run_episode(sample, backend, config))
        video_report = aggregate(score_records(manifest, [video_rec]))
        report = oracle.oracle_upper_bound(manifest, backend, config,
                                           video_accuracy=video_report.mean_accuracy)
        assert report.gap > 0
        assert len(report.partition.set_s) + len(report.partition.set_u) == 1

        assert hit(KeyframeSet(ids=(2,)), {2}) is True
        annotated = DatasetManifest(
            samples=(sample.__class__(**{**sample.__dict__,
                                         "pseudo_keyframes": frozenset({2})}),),
            source_uri="memory")
        scored = score_records(annotated, [video_rec])
        assert aggregate(scored).hit_rate == pytest.approx(100.0)


def test_cmd_eval_replay_determinism(manifest_factory, oracle_backend_factory, tmp_path):
    with timed("cmd_eval replay determinism (parallelism 1 vs 8)", limit_s=60):
        manifest = manifest_factory(n_samples=6)
        path = write_manifest_file(manifest, tmp_path / "manifest.jsonl")
        store_path = tmp_path / "store.jsonl"
        recording = RecordingBackend(oracle_backend_factory(manifest),
                                     TranscriptStore(store_path))
        from vtagent.cli import engine_config, resolve_config
        args = cli.build_parser().parse_args(
            ["eval", "--manifest", str(path), "--backend", "replay",
             "--store", str(store_path)])
        cfg = resolve_config(args)
        run_batch(cli._load_sampled_manifest(cfg, str(path)), recording,
                  engine_config(cfg), tmp_path / "seed.jsonl")

        for par, name in (("1", "p1"), ("8", "p8")):
            assert cli.main(["eval", "--manifest", str(path), "--backend", "replay",
                             "--store", str(store_path), "--parallelism", par,
                             "--out-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "p1" / "trajectories.jsonl").read_bytes()
                == (tmp_path / "p8" / "trajectories.jsonl").read_bytes())
        assert ((tmp_path / "p1" / "scores.jsonl").read_bytes()
                == (tmp_path / "p8" / "scores.jsonl").read_bytes())
