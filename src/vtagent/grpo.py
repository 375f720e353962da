"""Desk-scale GRPO: composite reward, group-normalized advantages, clipped
surrogate, verified on a tiny differentiable locate-and-focus policy.

The toy task mirrors the two-turn protocol: the policy first picks a frame
(or skips the tool via a no-select logit), then emits an answer symbol from
the features of whatever context it picked. Only the gold frame carries the
answer-identifying feature, so answering well without selecting is hard.

Optimization is plain gradient ascent with analytic gradients (no autograd),
which keeps the finite-difference oracle in the tests exact. Each rollout batch
gets one ascent step, taken at the sampling policy where every importance ratio
is exactly 1, so clipping never changes the update: training is REINFORCE with
group-normalized advantages, and the clip fraction is measured after the step.

Each probability is computed once per (policy, env), in a log-prob table: the
select log-probs in full, and one answer row per context, filled the first
time a drawn choice needs it. A step samples from the old policy's tables and
takes its gradient from the same entries, so its ratios are exp(0) = 1 and it
weights trajectory i by A_i / G, the bits ``grpo_objective_grad`` computes
there. Its clip pass fills the new policy's tables, which ``train`` hands to
the next step to sample from.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFinite
from .jsonl import replaced


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

    @cached_property
    def contexts(self) -> np.ndarray:
        """(n_frames + 1, d) answer contexts: each frame's features, then the
        blurred whole-video view that skipping the tool answers from."""
        return np.vstack([self.frame_features, self.frame_features.mean(axis=0)])


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

    # flat parameter view: the ascent step, and the finite-difference oracle
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


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Over the last axis, with math.log per row: np.log can round differently."""
    z = z - z.max(axis=-1, keepdims=True)
    sums = np.exp(z).sum(axis=-1, keepdims=True)
    return z - np.array([math.log(s) for s in sums.ravel().tolist()]).reshape(sums.shape)


def _select_log_probs(policy: ToyPolicy, env: ToyEnv) -> np.ndarray:
    """Log-probs of picking each frame, then of skipping the tool (index n_frames)."""
    frame_scores = env.frame_features @ policy.w_select
    return _log_softmax(np.concatenate([frame_scores, [policy.b_noselect]]))


class _LogProbs:
    """One policy's log-prob table in one env (see the module docstring). An
    answer row is one ``w_answer @ context`` then ``_log_softmax``: a
    (k, d) @ (d, V) product rounds differently and would change the sampled
    answers. Rows are filled only when a choice needs them: with many frames,
    most contexts are never drawn."""

    __slots__ = ("policy", "env", "select", "_answer")

    def __init__(self, policy: ToyPolicy, env: ToyEnv):
        self.policy, self.env = policy, env
        self.select = _select_log_probs(policy, env)
        self._answer: dict[int, np.ndarray] = {}

    def answers(self, choices: list[int]) -> np.ndarray:
        """(len(choices), V) answer log-probs, row i for the context of choices[i]."""
        rows = self._answer
        missing = [c for c in dict.fromkeys(choices) if c not in rows]
        if missing:
            w, contexts = self.policy.w_answer, self.env.contexts
            rows.update(zip(missing, _log_softmax(np.array([w @ contexts[c] for c in missing]))))
        return np.array([rows[c] for c in choices])


def _draw(log_probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn with uniform u[i] from row i of log_probs (or from its one row),
    by the inverse cdf that ``Generator.choice(n, p=exp(row))`` uses."""
    cdf = np.exp(log_probs).cumsum(axis=-1)
    if not math.isfinite(cdf[..., -1].sum()):
        raise NonFinite("non-finite action probabilities")
    cdf = cdf / cdf[..., -1:]
    return (cdf <= u[:, None]).sum(axis=-1)  # = cdf.searchsorted(u, side="right")


def _draw_group(table: _LogProbs, G: int, rng: np.random.Generator,
                ) -> tuple[list[int], list[int], np.ndarray, list[ToyTrajectory]]:
    """G trajectories from one (G, 2) uniform draw whose row i holds trajectory i's
    select and answer draws: the stream G ``sample_trajectory`` calls consume.
    Returns the select choices, the answers, their answer log-prob rows and the
    trajectories."""
    u = rng.random((G, 2))
    choices = _draw(table.select, u[:, 0]).tolist()
    ans_lp = table.answers(choices)
    answers = _draw(ans_lp, u[:, 1]).tolist()
    logp = table.select[choices] + ans_lp[np.arange(G), answers]
    n = table.env.n_frames
    return choices, answers, ans_lp, [
        ToyTrajectory(frame=None if c == n else c, answer_idx=a, old_logp=lp)
        for c, a, lp in zip(choices, answers, logp.tolist())]


def _sample_group(policy: ToyPolicy, env: ToyEnv, G: int,
                  rng: np.random.Generator) -> list[ToyTrajectory]:
    return _draw_group(_LogProbs(policy, env), G, rng)[3]


def _group_logp(table: _LogProbs, choices: list[int],
                answers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The answer log-prob rows of a group's choices, and its log-probs."""
    ans_lp = table.answers(choices)
    return ans_lp, table.select[choices] + ans_lp[np.arange(len(choices)), answers]


def _score_grad(table: _LogProbs, choices: list[int], answers: list[int],
                ans_lp: np.ndarray, w: np.ndarray) -> ToyPolicy:
    """sum_i w_i * grad logp_i in ToyPolicy shape, by the softmax score function."""
    env = table.env
    # d logp_i / d(w_select, b_noselect) = e_{c_i} - p_select against the frame
    # features and the skip slot, where e_{c_i} is one-hot on the choice
    m = (np.bincount(choices, weights=w, minlength=env.n_frames + 1)
         - w.sum() * np.exp(table.select))
    # d logp_i / d w_answer = outer(e_{a_i} - q_i, context_i)
    dq = -np.exp(ans_lp)
    dq[np.arange(len(choices)), answers] += 1.0
    return ToyPolicy(w_select=m[:-1] @ env.frame_features, b_noselect=float(m[-1]),
                     w_answer=(w[:, None] * dq).T @ env.contexts[choices])


def _logp_and_grad(policy: ToyPolicy, env: ToyEnv, trajs: Sequence[ToyTrajectory],
                   weigh: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """The group's log-probs and, given ``weigh``, sum_i w_i * grad logp_i in
    ToyPolicy shape, where w = weigh(log-probs); without it the gradient is None."""
    table = _LogProbs(policy, env)
    choices = [env.n_frames if t.frame is None else t.frame for t in trajs]
    answers = [t.answer_idx for t in trajs]
    ans_lp, logp = _group_logp(table, choices, answers)
    if weigh is None:
        return logp, None
    return logp, _score_grad(table, choices, answers, ans_lp, weigh(logp))


def sample_trajectory(policy: ToyPolicy, env: ToyEnv,
                      rng: np.random.Generator) -> ToyTrajectory:
    return _sample_group(policy, env, 1, rng)[0]


def trajectory_logp(policy: ToyPolicy, env: ToyEnv, traj: ToyTrajectory) -> float:
    return float(_logp_and_grad(policy, env, [traj])[0][0])


def trajectory_logp_grad(policy: ToyPolicy, env: ToyEnv,
                         traj: ToyTrajectory) -> tuple[float, ToyPolicy]:
    """Log-probability and its gradient in ToyPolicy shape (softmax score function)."""
    logp, grad = _logp_and_grad(policy, env, [traj], np.ones_like)
    return float(logp[0]), grad


def compute_reward(traj: ToyTrajectory, env: ToyEnv, tool_reward: float = 0.5) -> float:
    """Answer-correctness reward (0/1) plus tool-invocation reward (0/0.5)."""
    r_acc = 1.0 if traj.answer_idx == env.gold_answer_idx else 0.0
    r_tool = tool_reward if traj.frame is not None else 0.0
    return r_acc + r_tool


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """(R_i - mean) / (population std + 1e-8), summed as np.mean and np.std sum."""
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise ValueError("group size must be >= 2")
    dev = r - r.sum() / r.size
    return dev / (math.sqrt((dev * dev).sum() / r.size) + 1e-8)


def _ratios(new_lp: np.ndarray, old_lp: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        ratios = np.exp(new_lp - old_lp)
    if not np.isfinite(ratios).all():
        raise NonFinite("importance ratio overflow")
    return ratios


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
    ratios = _ratios(new_lp, old_lp)
    clipped = np.clip(ratios, 1.0 - eps, 1.0 + eps)
    return float(np.minimum(ratios * adv, clipped * adv).mean())


def grpo_objective_grad(policy: ToyPolicy, env: ToyEnv, trajs: Sequence[ToyTrajectory],
                        advantages: np.ndarray, eps: float) -> ToyPolicy:
    """Analytic gradient of the clipped surrogate at the given parameters.

    A trajectory inside the clipped-away region (A>0, rho>1+eps or A<0,
    rho<1-eps) contributes zero gradient; otherwise the contribution is
    A_i * rho_i * grad logp_i / G.
    """
    old_lp = np.array([t.old_logp for t in trajs])
    adv = np.asarray(advantages, dtype=float)

    def weigh(logp: np.ndarray) -> np.ndarray:
        rho = _ratios(logp, old_lp)
        away = ((adv > 0) & (rho > 1.0 + eps)) | ((adv < 0) & (rho < 1.0 - eps))
        return np.where(away, 0.0, adv * rho / len(trajs))
    return _logp_and_grad(policy, env, trajs, weigh)[1]


@dataclass
class StepStats:
    mean_reward: float
    mean_acc: float
    tool_rate: float
    clip_frac: float


def grpo_step(policy: ToyPolicy, env_batch: Sequence[ToyEnv], G: int, eps: float,
              lr: float, rng: np.random.Generator, tool_reward: float = 0.5,
              tables: Optional[Sequence[_LogProbs]] = None,
              ) -> tuple[ToyPolicy, StepStats, list[_LogProbs]]:
    """Sample G trajectories per env under the current (old) policy and take one
    ascent step on the clipped surrogate, averaged over envs.

    ``tables`` holds the policy's log-prob table per env, as the previous step
    returned them; None builds them. The gradient comes from the entries the
    draws used, so every ratio is exactly 1 and trajectory i is weighted
    A_i / G, bit for bit the A_i * rho_i / G of ``grpo_objective_grad``: the
    update is REINFORCE with group-normalized advantages. Returns the new
    policy, the step's stats (``clip_frac`` measured after the step) and the
    new policy's tables.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if tables is None:
        tables = [_LogProbs(policy, env) for env in env_batch]
    elif len(tables) != len(env_batch) or any(
            t.policy is not policy or t.env is not env for t, env in zip(tables, env_batch)):
        raise ValueError("tables must be the policy's own, one per env of env_batch")
    groups, rewards, grad = [], [], 0
    for table in tables:
        choices, answers, ans_lp, trajs = _draw_group(table, G, rng)
        r = np.array([compute_reward(t, table.env, tool_reward) for t in trajs])
        grad = grad + _score_grad(table, choices, answers, ans_lp,
                                  group_advantages(r) / G).to_vector()
        groups.append((choices, answers, trajs))
        rewards.append(r)
    new = ToyPolicy.from_vector(policy.to_vector() + lr * (grad / len(groups)),
                                policy.w_select.size, len(policy.w_answer))

    new_tables = [_LogProbs(new, table.env) for table in tables]
    new_lp = np.concatenate([_group_logp(new_table, choices, answers)[1]
                             for new_table, (choices, answers, _) in zip(new_tables, groups)])
    all_trajs = [(table.env, t) for table, (_, _, trajs) in zip(tables, groups) for t in trajs]
    rho = _ratios(new_lp, np.array([t.old_logp for _, t in all_trajs]))
    n = len(all_trajs)
    # sums as np.mean takes them: pairwise over the rewards, exact over the counts
    return new, StepStats(
        mean_reward=float(np.concatenate(rewards).sum() / n),
        mean_acc=sum(t.answer_idx == env.gold_answer_idx for env, t in all_trajs) / n,
        tool_rate=sum(t.frame is not None for _, t in all_trajs) / n,
        clip_frac=int(np.count_nonzero((rho < 1.0 - eps) | (rho > 1.0 + eps))) / n), new_tables


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    group_size: int = 4
    eps: float = 0.2
    lr: float = 0.1
    seed: int = 7
    tool_reward: float = 0.5

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not all(math.isfinite(v) and v > 0 for v in (self.eps, self.lr)):
            raise ValueError(f"eps and lr must be finite and > 0, got {self.eps!r} and "
                             f"{self.lr!r}")


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
    tables = None  # the current policy's log-prob tables, handed from step to step
    for _ in range(config.steps):
        policy, stats, tables = grpo_step(policy, env_suite, config.group_size, config.eps,
                                          config.lr, rng, config.tool_reward, tables)
        curve.append(stats)
    return TrainResult(policy=policy, curve=curve)


def write_curve_csv(curve: Sequence[StepStats], path: str | Path) -> None:
    with replaced(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_reward", "tool_rate", "clip_frac"])
        for step, s in enumerate(curve):
            writer.writerow([step, repr(s.mean_reward), repr(s.tool_rate), repr(s.clip_frac)])
