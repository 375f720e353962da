"""Desk-scale GRPO: composite reward, group-normalized advantages, clipped
surrogate, verified on a tiny differentiable locate-and-focus policy.

The toy task mirrors the two-turn protocol: the policy first picks a frame
(or skips the tool via a no-select logit), then emits an answer symbol from
the features of whatever context it picked. Only the gold frame carries the
answer-identifying feature, so answering well without selecting is hard.

Optimization is plain gradient ascent with analytic gradients (no autograd),
which keeps the finite-difference oracle in the tests exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import NonFinite

NO_SELECT = None  # sentinel for the skipped tool action


@dataclass(frozen=True)
class ToyEnv:
    n_frames: int
    gold_frame: int
    vocab: tuple[str, ...]
    gold_answer: str
    frame_features: np.ndarray  # (n_frames, d)

    @property
    def gold_answer_idx(self) -> int:
        return self.vocab.index(self.gold_answer)


def make_env(n_frames: int, vocab: Sequence[str], rng: np.random.Generator) -> ToyEnv:
    """Feature layout: one dim per vocab symbol plus a trailing evidence dim.

    The gold frame gets a one-hot on its answer symbol and evidence = 1;
    distractor frames get Gaussian noise of std 0.05 and evidence = 0.
    """
    vocab = tuple(vocab)
    d = len(vocab) + 1
    gold_frame = int(rng.integers(n_frames))
    gold_answer = vocab[int(rng.integers(len(vocab)))]
    feats = 0.05 * rng.standard_normal((n_frames, d))
    feats[:, -1] = 0.0
    feats[gold_frame] = 0.0
    feats[gold_frame, vocab.index(gold_answer)] = 1.0
    feats[gold_frame, -1] = 1.0
    return ToyEnv(n_frames=n_frames, gold_frame=gold_frame, vocab=vocab,
                  gold_answer=gold_answer, frame_features=feats)


@dataclass
class ToyPolicy:
    w_select: np.ndarray   # (d,) frame score = w_select . features[j]
    b_noselect: float      # logit of skipping the tool action
    w_answer: np.ndarray   # (V, d) answer logits = w_answer @ context

    @classmethod
    def zeros(cls, d: int, vocab_size: int) -> "ToyPolicy":
        return cls(w_select=np.zeros(d), b_noselect=0.0,
                   w_answer=np.zeros((vocab_size, d)))

    # flat parameter view, used by the finite-difference oracle
    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w_select, [self.b_noselect], self.w_answer.ravel()])

    @classmethod
    def from_vector(cls, vec: np.ndarray, d: int, vocab_size: int) -> "ToyPolicy":
        w_select = vec[:d].copy()
        b = float(vec[d])
        w_answer = vec[d + 1:].reshape(vocab_size, d).copy()
        return cls(w_select=w_select, b_noselect=b, w_answer=w_answer)


@dataclass(frozen=True)
class ToyTrajectory:
    frame: Optional[int]   # None = tool skipped
    answer_idx: int
    old_logp: float


@dataclass
class TrajectoryGroup:
    env: ToyEnv
    trajs: list[ToyTrajectory]
    rewards: np.ndarray
    advantages: np.ndarray


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    return z - math.log(np.exp(z).sum())


def _select_logits(policy: ToyPolicy, env: ToyEnv) -> np.ndarray:
    frame_scores = env.frame_features @ policy.w_select
    return np.concatenate([frame_scores, [policy.b_noselect]])


def _answer_context(env: ToyEnv, frame: Optional[int]) -> np.ndarray:
    if frame is None:
        return env.frame_features.mean(axis=0)  # blurred whole-video view
    return env.frame_features[frame]


def sample_trajectory(policy: ToyPolicy, env: ToyEnv,
                      rng: np.random.Generator) -> ToyTrajectory:
    sel_lp = _log_softmax(_select_logits(policy, env))
    choice = int(rng.choice(env.n_frames + 1, p=np.exp(sel_lp)))
    frame = None if choice == env.n_frames else choice
    ans_lp = _log_softmax(policy.w_answer @ _answer_context(env, frame))
    answer_idx = int(rng.choice(len(env.vocab), p=np.exp(ans_lp)))
    logp = float(sel_lp[choice] + ans_lp[answer_idx])
    return ToyTrajectory(frame=frame, answer_idx=answer_idx, old_logp=logp)


def trajectory_logp(policy: ToyPolicy, env: ToyEnv, traj: ToyTrajectory) -> float:
    sel_lp = _log_softmax(_select_logits(policy, env))
    choice = env.n_frames if traj.frame is None else traj.frame
    ans_lp = _log_softmax(policy.w_answer @ _answer_context(env, traj.frame))
    return float(sel_lp[choice] + ans_lp[traj.answer_idx])


def trajectory_logp_grad(policy: ToyPolicy, env: ToyEnv,
                         traj: ToyTrajectory) -> tuple[float, ToyPolicy]:
    """Log-probability and its gradient in ToyPolicy shape (softmax score function)."""
    sel_lp = _log_softmax(_select_logits(policy, env))
    p_sel = np.exp(sel_lp)
    choice = env.n_frames if traj.frame is None else traj.frame
    context = _answer_context(env, traj.frame)
    ans_lp = _log_softmax(policy.w_answer @ context)
    q = np.exp(ans_lp)

    # d logp_select / d w = f_choice[frames only] - sum_j p_j f_j
    grad_w = -(p_sel[: env.n_frames, None] * env.frame_features).sum(axis=0)
    if traj.frame is not None:
        grad_w = grad_w + env.frame_features[traj.frame]
    grad_b = (1.0 if traj.frame is None else 0.0) - p_sel[-1]

    onehot = np.zeros(len(env.vocab))
    onehot[traj.answer_idx] = 1.0
    grad_answer = np.outer(onehot - q, context)

    logp = float(sel_lp[choice] + ans_lp[traj.answer_idx])
    return logp, ToyPolicy(w_select=grad_w, b_noselect=float(grad_b), w_answer=grad_answer)


def compute_reward(traj: ToyTrajectory, env: ToyEnv, tool_reward: float = 0.5) -> float:
    """Answer-correctness reward (0/1) plus tool-invocation reward (0/0.5)."""
    r_acc = 1.0 if traj.answer_idx == env.gold_answer_idx else 0.0
    r_tool = tool_reward if traj.frame is not None else 0.0
    return r_acc + r_tool


def group_advantages(rewards: Sequence[float], delta: float = 1e-8) -> np.ndarray:
    """(R_i - mean) / (population std + delta)."""
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise ValueError("group size must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    return (r - r.mean()) / (r.std() + delta)


def grpo_objective(new_logp: Sequence[float], old_logp: Sequence[float],
                   advantages: Sequence[float], eps: float) -> float:
    """Clipped surrogate with a single importance ratio per trajectory; no KL term."""
    new_lp = np.asarray(new_logp, dtype=float)
    old_lp = np.asarray(old_logp, dtype=float)
    adv = np.asarray(advantages, dtype=float)
    if not (len(new_lp) == len(old_lp) == len(adv)):
        raise ValueError("length mismatch")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    with np.errstate(over="ignore"):
        ratios = np.exp(new_lp - old_lp)
    if not np.all(np.isfinite(ratios)):
        raise NonFinite("importance ratio overflow")
    clipped = np.clip(ratios, 1.0 - eps, 1.0 + eps)
    return float(np.minimum(ratios * adv, clipped * adv).mean())


def grpo_objective_grad(policy: ToyPolicy, env: ToyEnv, trajs: Sequence[ToyTrajectory],
                        advantages: np.ndarray, eps: float) -> ToyPolicy:
    """Analytic gradient of the clipped surrogate at the current parameters.

    A trajectory inside the clipped-away region (A>0, rho>1+eps or A<0,
    rho<1-eps) contributes zero gradient; otherwise the contribution is
    A_i * rho_i * grad logp_i.
    """
    G = len(trajs)
    acc = ToyPolicy.zeros(policy.w_select.size, policy.w_answer.shape[0])
    for traj, a in zip(trajs, advantages):
        logp, grad = trajectory_logp_grad(policy, env, traj)
        rho = math.exp(logp - traj.old_logp)
        if not math.isfinite(rho):
            raise NonFinite("importance ratio overflow")
        if (a > 0 and rho > 1.0 + eps) or (a < 0 and rho < 1.0 - eps):
            continue
        coeff = a * rho / G
        acc.w_select += coeff * grad.w_select
        acc.b_noselect += coeff * grad.b_noselect
        acc.w_answer += coeff * grad.w_answer
    return acc


@dataclass
class StepStats:
    mean_reward: float
    mean_acc: float
    tool_rate: float
    clip_frac: float


def rollout_group(policy: ToyPolicy, env: ToyEnv, G: int, rng: np.random.Generator,
                  tool_reward: float = 0.5) -> TrajectoryGroup:
    trajs = [sample_trajectory(policy, env, rng) for _ in range(G)]
    rewards = np.array([compute_reward(t, env, tool_reward) for t in trajs])
    return TrajectoryGroup(env=env, trajs=trajs, rewards=rewards,
                           advantages=group_advantages(rewards))


def grpo_step(policy: ToyPolicy, env_batch: Sequence[ToyEnv], G: int, eps: float,
              lr: float, rng: np.random.Generator,
              tool_reward: float = 0.5) -> tuple[ToyPolicy, StepStats]:
    """Sample G trajectories per env under the current (old) policy, take one
    ascent step on the clipped surrogate."""
    groups = [rollout_group(policy, env, G, rng, tool_reward) for env in env_batch]
    grad = ToyPolicy.zeros(policy.w_select.size, policy.w_answer.shape[0])
    for group in groups:
        g = grpo_objective_grad(policy, group.env, group.trajs, group.advantages, eps)
        grad.w_select += g.w_select / len(groups)
        grad.b_noselect += g.b_noselect / len(groups)
        grad.w_answer += g.w_answer / len(groups)
    new = ToyPolicy(w_select=policy.w_select + lr * grad.w_select,
                    b_noselect=policy.b_noselect + lr * grad.b_noselect,
                    w_answer=policy.w_answer + lr * grad.w_answer)

    all_trajs = [(gp.env, t) for gp in groups for t in gp.trajs]
    n = len(all_trajs)
    mean_reward = float(np.mean([r for gp in groups for r in gp.rewards]))
    mean_acc = float(np.mean([1.0 if t.answer_idx == env.gold_answer_idx else 0.0
                              for env, t in all_trajs]))
    tool_rate = float(np.mean([1.0 if t.frame is not None else 0.0
                               for _, t in all_trajs]))
    # clip fraction measured after the update (ratios are 1 by construction before it)
    clipped = 0
    for env, t in all_trajs:
        rho = math.exp(trajectory_logp(new, env, t) - t.old_logp)
        if rho < 1.0 - eps or rho > 1.0 + eps:
            clipped += 1
    return new, StepStats(mean_reward=mean_reward, mean_acc=mean_acc,
                          tool_rate=tool_rate, clip_frac=clipped / n)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    group_size: int = 4
    eps: float = 0.2
    lr: float = 0.1
    seed: int = 7
    tool_reward: float = 0.5

    def __post_init__(self):
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.eps <= 0 or self.lr <= 0:
            raise ValueError("eps and lr must be > 0")


@dataclass
class TrainResult:
    policy: ToyPolicy
    curve: list[StepStats]

    def final_mean_acc(self, window: int = 50) -> float:
        tail = self.curve[-window:]
        return float(np.mean([s.mean_acc for s in tail]))

    def final_tool_rate(self, window: int = 50) -> float:
        tail = self.curve[-window:]
        return float(np.mean([s.tool_rate for s in tail]))


def chance_baseline(env: ToyEnv) -> float:
    """Expected R_acc of the zero-initialized (uniform) policy: the answer head
    is uniform over the vocab regardless of context."""
    return 1.0 / len(env.vocab)


def train(env_suite: Sequence[ToyEnv], config: TrainConfig) -> TrainResult:
    rng = np.random.default_rng(config.seed)
    env0 = env_suite[0]
    policy = ToyPolicy.zeros(env0.frame_features.shape[1], len(env0.vocab))
    curve: list[StepStats] = []
    for _ in range(config.steps):
        policy, stats = grpo_step(policy, env_suite, config.group_size, config.eps,
                                  config.lr, rng, config.tool_reward)
        curve.append(stats)
    return TrainResult(policy=policy, curve=curve)


def write_curve_csv(curve: Sequence[StepStats], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_reward", "tool_rate", "clip_frac"])
        for step, s in enumerate(curve):
            writer.writerow([step, repr(s.mean_reward), repr(s.tool_rate), repr(s.clip_frac)])
