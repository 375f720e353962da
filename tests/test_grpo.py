import copy
import errno
import math

import numpy as np
import pytest

from vtagent import grpo
from vtagent.errors import NonFinite


VOCAB = tuple(chr(ord("a") + i) for i in range(6))


@pytest.fixture
def env():
    return grpo.make_env(8, VOCAB, np.random.default_rng(3))


@pytest.fixture
def policy(env):
    rng = np.random.default_rng(11)
    d = env.frame_features.shape[1]
    return grpo.ToyPolicy(w_select=0.3 * rng.standard_normal(d),
                          b_noselect=0.1,
                          w_answer=0.3 * rng.standard_normal((len(VOCAB), d)))


class TestReward:
    def make_traj(self, frame, answer_idx):
        return grpo.ToyTrajectory(frame=frame, answer_idx=answer_idx, old_logp=0.0)

    def test_correct_with_tool(self, env):
        traj = self.make_traj(env.gold_frame, env.gold_answer_idx)
        assert grpo.compute_reward(traj, env) == 1.5

    def test_correct_without_tool(self, env):
        traj = self.make_traj(None, env.gold_answer_idx)
        assert grpo.compute_reward(traj, env) == 1.0

    def test_wrong_with_tool(self, env):
        wrong = (env.gold_answer_idx + 1) % len(VOCAB)
        assert grpo.compute_reward(self.make_traj(0, wrong), env) == 0.5


class TestAdvantages:
    def test_hand_computed(self):
        adv = grpo.group_advantages([1.5, 0.5, 0.5, 1.5])
        assert np.allclose(adv, [1, -1, -1, 1], atol=1e-6)

    def test_all_equal_zero(self):
        assert np.allclose(grpo.group_advantages([0.5] * 4), 0.0)

    def test_pair(self):
        adv = grpo.group_advantages([1.0, 0.0])
        assert np.allclose(adv, [1, -1], atol=1e-6)

    def test_shift_invariance(self):
        r = [1.5, 0.5, 0.0, 1.0]
        a = grpo.group_advantages(r)
        b = grpo.group_advantages([x + 3.7 for x in r])
        assert np.allclose(a, b, atol=1e-9)

    def test_scale_quasi_invariance(self):
        r = np.array([1.5, 0.5, 0.0, 1.0])
        delta = 1e-8  # the std floor group_advantages adds
        k = 5.0
        a = grpo.group_advantages(r)
        b = grpo.group_advantages(k * r)
        # exact delta-aware factor, tends to 1 as delta -> 0
        factor = (k * r.std() / (k * r.std() + delta)) / (r.std() / (r.std() + delta))
        assert np.allclose(b, a * factor, atol=1e-12)

    def test_moments(self):
        r = np.array([1.5, 0.5, 0.0, 1.0])
        delta = 1e-8  # the std floor group_advantages adds
        a = grpo.group_advantages(r)
        assert abs(a.mean()) <= delta
        assert 1 - delta / r.std() <= a.std() <= 1.0


class TestObjective:
    def test_ratio_one_identity(self):
        lp = [-1.0, -2.0, -0.5]
        adv = [0.3, -0.2, 1.1]
        assert grpo.grpo_objective(lp, lp, adv, eps=0.2) == pytest.approx(np.mean(adv))

    def test_positive_advantage_clipped(self):
        eps = 0.2
        old = [0.0]
        new = [math.log(1 + 2 * eps)]
        assert grpo.grpo_objective(new, old, [2.0], eps) == pytest.approx((1 + eps) * 2.0)

    def test_negative_advantage_clipped(self):
        eps = 0.2
        old = [0.0]
        new = [math.log(1 - 2 * eps)]
        assert grpo.grpo_objective(new, old, [-2.0], eps) == pytest.approx((1 - eps) * -2.0)

    def test_monotone_in_eps_for_clipped_positive(self):
        old = [0.0]
        new = [math.log(2.0)]
        vals = [grpo.grpo_objective(new, old, [1.0], eps) for eps in (0.1, 0.2, 0.4, 0.9)]
        assert vals == sorted(vals)  # clip only removes upside

    def test_overflow_raises(self):
        with pytest.raises(NonFinite):
            grpo.grpo_objective([1e4], [0.0], [1.0], eps=0.2)


def objective_at(vec, d, vocab_size, env, trajs, advantages, eps):
    p = grpo.ToyPolicy.from_vector(vec, d, vocab_size)
    new_lp = [grpo.trajectory_logp(p, env, t) for t in trajs]
    return grpo.grpo_objective(new_lp, [t.old_logp for t in trajs], advantages, eps)


class TestGradients:
    def sample_group(self, policy, env, G, rng):
        trajs = [grpo.sample_trajectory(policy, env, rng) for _ in range(G)]
        rewards = [grpo.compute_reward(t, env) for t in trajs]
        return trajs, grpo.group_advantages(rewards)

    def test_at_old_policy_equals_reinforce(self, env, policy):
        rng = np.random.default_rng(5)
        trajs, adv = self.sample_group(policy, env, 6, rng)
        grad = grpo.grpo_objective_grad(policy, env, trajs, adv, eps=0.2)
        expected = grpo.ToyPolicy.zeros(policy.w_select.size, policy.w_answer.shape[0])
        for t, a in zip(trajs, adv):
            _, g = grpo.trajectory_logp_grad(policy, env, t)
            expected.w_select += a * g.w_select / len(trajs)
            expected.b_noselect += a * g.b_noselect / len(trajs)
            expected.w_answer += a * g.w_answer / len(trajs)
        assert np.allclose(grad.to_vector(), expected.to_vector(), atol=1e-10)

    def test_degenerate_group_zero_gradient(self, env, policy):
        trajs = [grpo.ToyTrajectory(frame=env.gold_frame, answer_idx=0, old_logp=-1.0)
                 for _ in range(4)]
        adv = grpo.group_advantages([1.0] * 4)
        grad = grpo.grpo_objective_grad(policy, env, trajs, adv, eps=0.2)
        assert np.allclose(grad.to_vector(), 0.0)

    def test_clipped_away_region_zero_gradient(self, env, policy):
        rng = np.random.default_rng(9)
        traj = grpo.sample_trajectory(policy, env, rng)
        # force rho far above 1+eps with positive advantage
        boosted = grpo.ToyTrajectory(frame=traj.frame, answer_idx=traj.answer_idx,
                                     old_logp=grpo.trajectory_logp(policy, env, traj) - 2.0)
        grad = grpo.grpo_objective_grad(policy, env, [boosted], np.array([1.0]), eps=0.2)
        assert np.allclose(grad.to_vector(), 0.0)

    def test_finite_differences(self, env, policy):
        rng = np.random.default_rng(17)
        d = env.frame_features.shape[1]
        V = len(env.vocab)
        h = 1e-5
        checked = 0
        while checked < 100:
            trajs, adv = self.sample_group(policy, env, 4, rng)
            vec = policy.to_vector() + 0.05 * rng.standard_normal(policy.to_vector().size)
            p = grpo.ToyPolicy.from_vector(vec, d, V)
            # stay away from clip boundaries where the objective is not smooth
            ratios = [math.exp(grpo.trajectory_logp(p, env, t) - t.old_logp) for t in trajs]
            if any(abs(r - 0.8) < 0.02 or abs(r - 1.2) < 0.02 for r in ratios):
                continue
            analytic = grpo.grpo_objective_grad(p, env, trajs, adv, eps=0.2).to_vector()
            numeric = np.zeros_like(vec)
            for i in range(vec.size):
                up, down = vec.copy(), vec.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (objective_at(up, d, V, env, trajs, adv, 0.2)
                              - objective_at(down, d, V, env, trajs, adv, 0.2)) / (2 * h)
            denom = max(np.linalg.norm(numeric), 1e-12)
            rel = np.linalg.norm(analytic - numeric) / denom
            assert rel < 1e-4, f"relative error {rel} at check {checked}"
            checked += 1


class TestTraining:
    def test_learns_past_chance(self, env):
        config = grpo.TrainConfig(steps=500, group_size=4, eps=0.2, lr=0.1, seed=7)
        result = grpo.train([env], config)
        assert grpo.chance_baseline(env) == pytest.approx(1 / 6)
        assert result.final_mean_acc(50) >= 0.9

    def test_deterministic_given_seed(self, env, tmp_path):
        config = grpo.TrainConfig(steps=60, seed=7)
        a = grpo.train([env], config)
        b = grpo.train([env], config)
        grpo.write_curve_csv(a.curve, tmp_path / "a.csv")
        grpo.write_curve_csv(b.curve, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_tool_reward_raises_tool_rate(self):
        rates_with, rates_without = [], []
        for seed in range(5):
            env = grpo.make_env(8, VOCAB, np.random.default_rng(100 + seed))
            on = grpo.train([env], grpo.TrainConfig(steps=300, seed=seed, tool_reward=0.5))
            off = grpo.train([env], grpo.TrainConfig(steps=300, seed=seed, tool_reward=0.0))
            rates_with.append(on.final_tool_rate(50))
            rates_without.append(off.final_tool_rate(50))
        assert np.mean(rates_with) >= np.mean(rates_without)


# Reference: the per-trajectory step, one Python pass per trajectory, that the
# group step must reproduce bit for bit in everything it writes.

def ref_log_softmax(z):
    z = z - z.max()
    return z - math.log(np.exp(z).sum())


def ref_select_lp(policy, env):
    return ref_log_softmax(np.concatenate([env.frame_features @ policy.w_select,
                                           [policy.b_noselect]]))


def ref_context(env, frame):
    return env.frame_features.mean(axis=0) if frame is None else env.frame_features[frame]


def ref_sample(policy, env, rng):
    sel_lp = ref_select_lp(policy, env)
    choice = int(rng.choice(env.n_frames + 1, p=np.exp(sel_lp)))
    frame = None if choice == env.n_frames else choice
    ans_lp = ref_log_softmax(policy.w_answer @ ref_context(env, frame))
    answer_idx = int(rng.choice(len(env.vocab), p=np.exp(ans_lp)))
    return grpo.ToyTrajectory(frame=frame, answer_idx=answer_idx,
                              old_logp=float(sel_lp[choice] + ans_lp[answer_idx]))


def ref_logp_grad(policy, env, traj):
    sel_lp = ref_select_lp(policy, env)
    p_sel = np.exp(sel_lp)
    choice = env.n_frames if traj.frame is None else traj.frame
    context = ref_context(env, traj.frame)
    ans_lp = ref_log_softmax(policy.w_answer @ context)
    grad_w = -(p_sel[: env.n_frames, None] * env.frame_features).sum(axis=0)
    if traj.frame is not None:
        grad_w = grad_w + env.frame_features[traj.frame]
    grad_b = (1.0 if traj.frame is None else 0.0) - p_sel[-1]
    onehot = np.zeros(len(env.vocab))
    onehot[traj.answer_idx] = 1.0
    grad_answer = np.outer(onehot - np.exp(ans_lp), context)
    return (float(sel_lp[choice] + ans_lp[traj.answer_idx]),
            grpo.ToyPolicy(w_select=grad_w, b_noselect=float(grad_b), w_answer=grad_answer))


def ref_objective_grad(policy, env, trajs, advantages, eps):
    acc = grpo.ToyPolicy.zeros(policy.w_select.size, policy.w_answer.shape[0])
    for traj, a in zip(trajs, advantages):
        logp, grad = ref_logp_grad(policy, env, traj)
        rho = math.exp(logp - traj.old_logp)
        if (a > 0 and rho > 1.0 + eps) or (a < 0 and rho < 1.0 - eps):
            continue
        coeff = a * rho / len(trajs)
        acc.w_select += coeff * grad.w_select
        acc.b_noselect += coeff * grad.b_noselect
        acc.w_answer += coeff * grad.w_answer
    return acc


def ref_advantages(rewards, delta=1e-8):
    r = np.asarray(rewards, dtype=float)
    return (r - r.mean()) / (r.std() + delta)


def ref_step(policy, envs, G, eps, lr, rng, tool_reward):
    groups = []
    for env in envs:
        trajs = [ref_sample(policy, env, rng) for _ in range(G)]
        rewards = [grpo.compute_reward(t, env, tool_reward) for t in trajs]
        groups.append((env, trajs, rewards, ref_advantages(rewards)))
    grad = grpo.ToyPolicy.zeros(policy.w_select.size, policy.w_answer.shape[0])
    for env, trajs, _, adv in groups:
        g = ref_objective_grad(policy, env, trajs, adv, eps)
        grad.w_select += g.w_select / len(groups)
        grad.b_noselect += g.b_noselect / len(groups)
        grad.w_answer += g.w_answer / len(groups)
    new = grpo.ToyPolicy(w_select=policy.w_select + lr * grad.w_select,
                         b_noselect=policy.b_noselect + lr * grad.b_noselect,
                         w_answer=policy.w_answer + lr * grad.w_answer)
    all_trajs = [(env, t) for env, trajs, _, _ in groups for t in trajs]
    clipped = 0
    for env, t in all_trajs:
        rho = math.exp(ref_logp_grad(new, env, t)[0] - t.old_logp)
        clipped += rho < 1.0 - eps or rho > 1.0 + eps
    return new, grpo.StepStats(
        mean_reward=float(np.mean([r for _, _, rs, _ in groups for r in rs])),
        mean_acc=float(np.mean([1.0 if t.answer_idx == env.gold_answer_idx else 0.0
                                for env, t in all_trajs])),
        tool_rate=float(np.mean([1.0 if t.frame is not None else 0.0 for _, t in all_trajs])),
        clip_frac=clipped / len(all_trajs))


def ref_train(envs, config):
    rng = np.random.default_rng(config.seed)
    policy = grpo.ToyPolicy.zeros(envs[0].frame_features.shape[1], len(envs[0].vocab))
    curve = []
    for _ in range(config.steps):
        policy, stats = ref_step(policy, envs, config.group_size, config.eps, config.lr,
                                 rng, config.tool_reward)
        curve.append(stats)
    return grpo.TrainResult(policy=policy, curve=curve)


class TestMatchesReference:
    @pytest.mark.parametrize("seed,group_size,env_frames,vocab,eps,lr,tool_reward", [
        (7, 4, 8, 6, 0.2, 0.1, 0.5),
        (5, 4, 8, 6, 0.2, 0.1, 0.5),
        (1, 2, 8, 6, 0.2, 0.1, 0.0),
        (2, 8, 3, 4, 0.05, 0.5, 0.5),
        (3, 16, 20, 12, 0.2, 0.1, 0.5),
        (4, 4, 1, 1, 0.2, 0.1, 0.5),
        (6, 5, 8, 6, 0.01, 3.0, 0.0),
        (8, 3, 12, 2, 0.9, 0.02, 0.25),
        # many more frames than draws: most contexts' answer rows are never needed
        (9, 2, 64, 6, 0.2, 0.1, 0.5),
        (10, 4, 256, 6, 0.2, 0.1, 0.5),
    ])
    def test_train_writes_the_reference_curve(self, tmp_path, seed, group_size, env_frames,
                                              vocab, eps, lr, tool_reward):
        env = grpo.make_env(env_frames, VOCAB[:vocab] if vocab <= len(VOCAB)
                            else [f"s{i}" for i in range(vocab)], np.random.default_rng(seed))
        config = grpo.TrainConfig(steps=150, group_size=group_size, eps=eps, lr=lr,
                                  seed=seed, tool_reward=tool_reward)
        grpo.write_curve_csv(grpo.train([env], config).curve, tmp_path / "new.csv")
        grpo.write_curve_csv(ref_train([env], config).curve, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_two_envs_match_the_reference_curve(self):
        envs = [grpo.make_env(8, VOCAB, np.random.default_rng(s)) for s in (21, 22)]
        config = grpo.TrainConfig(steps=100, seed=9)
        assert grpo.train(envs, config).curve == ref_train(envs, config).curve

    def test_group_advantages_match_numpy_mean_and_std(self):
        rng = np.random.default_rng(43)
        for size in (2, 3, 4, 7, 8, 9, 16, 33):
            for rewards in (rng.choice([0.0, 0.3, 0.5, 1.0, 1.3, 1.5], size=size),
                            rng.standard_normal(size) * 10):
                assert np.array_equal(grpo.group_advantages(rewards), ref_advantages(rewards))

    def test_sample_trajectory_draws_match_rng_choice(self, env, policy):
        for skip_logit in (policy.b_noselect, 2.0):  # both with and without tool skips
            p = grpo.ToyPolicy(w_select=policy.w_select, b_noselect=skip_logit,
                               w_answer=policy.w_answer)
            rng_new, rng_ref = np.random.default_rng(31), np.random.default_rng(31)
            new = [grpo.sample_trajectory(p, env, rng_new) for _ in range(500)]
            ref = [ref_sample(p, env, rng_ref) for _ in range(500)]
            assert new == ref
            assert any(t.frame is None for t in new) and any(t.frame is not None for t in new)
            assert rng_new.random() == rng_ref.random()

    @pytest.mark.parametrize("G", [2, 4, 16])
    @pytest.mark.parametrize("dense", [False, True])
    def test_group_draws_and_log_probs_match_the_reference(self, env, policy, G, dense):
        # the step samples each env's group at once; old_logp must come out
        # bitwise as one trajectory at a time computes it. Dense features are
        # where a (G, d) @ (d, V) product differs from G matrix-vector products.
        if dense:
            env = grpo.ToyEnv(n_frames=8, gold_frame=0, vocab=VOCAB, gold_answer="a",
                              frame_features=np.random.default_rng(41).standard_normal((8, 7)))
        rng_new, rng_ref = np.random.default_rng(37), np.random.default_rng(37)
        for _ in range(50):
            group = grpo._sample_group(policy, env, G, rng_new)
            assert group == [ref_sample(policy, env, rng_ref) for _ in range(G)]

    def test_trajectory_logp_grad_matches_reference(self, env, policy):
        rng = np.random.default_rng(13)
        for _ in range(20):
            traj = grpo.sample_trajectory(policy, env, rng)
            logp, grad = grpo.trajectory_logp_grad(policy, env, traj)
            ref_lp, ref_grad = ref_logp_grad(policy, env, traj)
            assert logp == ref_lp == grpo.trajectory_logp(policy, env, traj)
            assert np.allclose(grad.to_vector(), ref_grad.to_vector(), rtol=0, atol=1e-14)

    def test_gradient_with_some_trajectories_clipped_away(self, env, policy):
        rng = np.random.default_rng(23)
        trajs = [grpo.sample_trajectory(policy, env, rng) for _ in range(6)]
        adv = np.array([1.0, -1.0, 0.5, -0.5, 1.5, -1.5])
        # theta != theta_old: each old log-prob is off by its own amount, so the
        # ratios at `policy` are exp(shift). Trajectories 0 and 1 are clipped
        # away; 4 and 5 are outside [1 - eps, 1 + eps] on the side that keeps them
        shifts = [0.5, -0.5, 0.1, -0.1, -0.3, 0.3]
        trajs = [grpo.ToyTrajectory(frame=t.frame, answer_idx=t.answer_idx,
                                    old_logp=grpo.trajectory_logp(policy, env, t) - s)
                 for t, s in zip(trajs, shifts)]
        eps = 0.2
        rho = np.exp(shifts)
        away = ((adv > 0) & (rho > 1 + eps)) | ((adv < 0) & (rho < 1 - eps))
        assert away.tolist() == [True, True, False, False, False, False]
        assert not np.allclose(rho, 1.0)
        grad = grpo.grpo_objective_grad(policy, env, trajs, adv, eps)
        expected = ref_objective_grad(policy, env, trajs, adv, eps)
        assert np.allclose(grad.to_vector(), expected.to_vector(), rtol=0, atol=1e-12)
        # dropping the clipped-away trajectories leaves the gradient as it is
        kept = [i for i in range(6) if not away[i]]
        rescaled = ref_objective_grad(policy, env, [trajs[i] for i in kept], adv[kept], eps)
        assert np.allclose(grad.to_vector(), rescaled.to_vector() * len(kept) / 6,
                           rtol=0, atol=1e-12)

    def test_step_applies_the_objective_gradient_at_the_old_policy(self, env, policy,
                                                                  monkeypatch):
        # the step weights trajectory i by A_i / G, the objective's A_i * rho_i / G
        # at rho = 1: the same bits, from the same score-function formula
        skipping = grpo.ToyPolicy(w_select=policy.w_select, b_noselect=1.5,
                                  w_answer=policy.w_answer)
        applied = []
        score_grad = grpo._score_grad

        def recording(*args):
            applied.append(score_grad(*args))
            return applied[-1]

        monkeypatch.setattr(grpo, "_score_grad", recording)
        mixed = 0
        for seed in range(20):
            applied.clear()
            new, _, _ = grpo.grpo_step(skipping, [env], 6, 0.2, 0.1,
                                       np.random.default_rng(seed))
            trajs = grpo._sample_group(skipping, env, 6, np.random.default_rng(seed))
            adv = grpo.group_advantages([grpo.compute_reward(t, env) for t in trajs])
            (grad,) = applied
            expected = grpo.grpo_objective_grad(skipping, env, trajs, adv, 0.2)
            assert np.array_equal(grad.to_vector(), expected.to_vector())
            assert np.array_equal(new.to_vector(),
                                  skipping.to_vector() + 0.1 * expected.to_vector())
            frames = {t.frame is None for t in trajs}
            mixed += frames == {True, False} and not np.allclose(adv, 0.0)
        assert mixed >= 5  # groups holding both tool skips and selections

    def test_step_checks_its_tables(self, env, policy):
        rng = np.random.default_rng(0)
        _, _, tables = grpo.grpo_step(policy, [env], 4, 0.2, 0.1, rng)
        with pytest.raises(ValueError, match="tables"):  # the old policy's, not the new one's
            grpo.grpo_step(policy, [env], 4, 0.2, 0.1, rng, tables=tables)

    def test_table_fills_only_the_answer_rows_of_drawn_contexts(self):
        env = grpo.make_env(256, VOCAB, np.random.default_rng(3))
        rng = np.random.default_rng(11)
        d = env.frame_features.shape[1]
        policy = grpo.ToyPolicy(w_select=rng.standard_normal(d), b_noselect=0.5,
                                w_answer=rng.standard_normal((len(VOCAB), d)))
        table = grpo._LogProbs(policy, env)
        assert table.select.shape == (257,) and not table._answer
        drawn = set()
        for _ in range(3):
            choices, _, _, trajs = grpo._draw_group(table, 4, rng)
            drawn.update(choices)
            assert set(table._answer) == drawn
            for t in trajs:
                assert t == grpo.ToyTrajectory(t.frame, t.answer_idx, grpo.trajectory_logp(
                    policy, env, t))
        for c, row in table._answer.items():
            frame = None if c == env.n_frames else c
            assert np.array_equal(row, ref_log_softmax(policy.w_answer @ ref_context(env, frame)))
        # a step fills the new policy's table with the rows its clip pass needs: the
        # contexts of the group it drew, and no others
        group = grpo._draw_group(grpo._LogProbs(policy, env), 2, copy.deepcopy(rng))[0]
        _, _, (new_table,) = grpo.grpo_step(policy, [env], 2, 0.2, 0.1, rng, tables=[table])
        assert set(new_table._answer) == set(group)
        assert set(table._answer) == drawn | set(group)

    def test_non_finite_probabilities_raise(self, env, policy):
        bad = grpo.ToyPolicy(w_select=np.full_like(policy.w_select, np.nan),
                             b_noselect=0.0, w_answer=policy.w_answer)
        with pytest.raises(NonFinite):
            grpo.sample_trajectory(bad, env, np.random.default_rng(0))
        bad = grpo.ToyPolicy(w_select=policy.w_select, b_noselect=policy.b_noselect,
                             w_answer=np.full_like(policy.w_answer, np.nan))
        with pytest.raises(NonFinite):
            grpo.sample_trajectory(bad, env, np.random.default_rng(0))
        with pytest.raises(ValueError):  # what rng.choice does with such probabilities
            ref_sample(bad, env, np.random.default_rng(0))


def test_failed_curve_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "curve.csv"
    grpo.write_curve_csv([grpo.StepStats(0.5, 0.5, 0.25, 0.0)], path)
    before = path.read_bytes()
    assert before == b"step,mean_reward,tool_rate,clip_frac\r\n0,0.5,0.25,0.0\r\n"

    class FullDisk(float):
        def __repr__(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    curve = [grpo.StepStats(0.75, 0.5, 0.5, 0.0), grpo.StepStats(FullDisk(1), 1.0, 1.0, 0.0)]
    with pytest.raises(OSError, match="No space left"):
        grpo.write_curve_csv(curve, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv"]
