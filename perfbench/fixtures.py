"""Seeded inputs for each benchmark workload: frames, manifests and stub rules.

Every workload is a fixed sequence of sample *profiles* (how the stub model
answers each question), drawn once from the workload's name. The seed draws
the content: questions, golds, keyframe and evidence ids, frame bytes. The
work a pipeline does (calls, retries, episodes, images per request, and
where in the manifest they fall) is therefore the same for every seed, so
runs on different seeds measure the same work on different data.

The profile vocabulary, shared with the stub and the output checks:

* ``pattern``: outcome of the n-th answer the stub serves for a question in
  one pipeline run: ``C`` exact gold, ``N`` a one-character near miss (ANLS
  1 - 1/len, accepted by the curation judge), ``W`` wrong (ANLS 0).
* ``anchor_bad``: the first ``anchor_bad`` anchor replies served for the
  question in one pipeline run carry no action block.
* ``select``: the keyframe ids of a well-formed anchor reply.
* ``pseudo``: pseudo keyframes written to the manifest, or None.
* ``evidence``: frames whose single-image oracle query returns the gold.
* ``fail``: request kind -> HTTP status sent the first time a request of
  that kind for the question arrives in a pipeline run.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

# smallest valid PNG (1x1); a per-frame tag is appended after IEND so every
# frame file, and every image the stub receives, is distinct
PNG_1PX = bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108060000001f15c489"
    "0000000d49444154789c626001000000ffff03000006000557bfabd40000000049454e44ae426082"
)
TAG_BYTES = 24
CAP = 8  # keyframe cap passed to every pipeline

# answer patterns for five attempts; workloads with fewer attempts truncate them
BASE_PATTERNS = ("CCCCC", "WWWWW", "CWCWC", "NWWWW", "WCCCC", "CCNCC", "WWWWC", "NNNNN")
SELECT_SIZES = (2, 3, 4, 3)
GOLD_LETTERS = "abcdefghijklm"   # golds and near misses
WRONG_LETTERS = "nopqrstuvwxyz"  # disjoint from golds, so ANLS(wrong) = 0
GOLD_LEN = 10


@dataclass(frozen=True)
class Spec:
    name: str
    samples: int
    per_video: int          # questions asked about each video
    frames: int
    frame_bytes: int        # 0 = one-pixel PNG
    latency_s: float        # stub delay per served chat completion
    max_attempts: int       # --max-attempts: parse retries, SFT tries, RL episodes
    malformed: int          # samples whose first anchor reply has no action block
    fallback: int           # samples whose anchor replies never parse
    fail: tuple[tuple[str, int], ...] = ()  # (kind, status), each on one sample
    grpo_runs: int = 1      # toy GRPO runs per round, for enough timing samples
    store_writes: bool = False  # every timed pipeline records into a fresh store
    replay: bool = False    # record once through the stub, then time replays
    oracle_samples: int = 0     # replay only: oracle runs on a prefix
    curation_samples: int = 0   # replay only: curation runs on a prefix ...
    stale: int = 0              # ... plus this many samples the store never saw


SPECS = {
    "offline-replay": Spec(
        name="offline-replay", samples=1024, per_video=8, frames=32, frame_bytes=0,
        latency_s=0.0, max_attempts=5, malformed=51, fallback=10, replay=True,
        oracle_samples=32, curation_samples=64, stale=4),
    "latency-mix": Spec(
        name="latency-mix", samples=16, per_video=2, frames=8, frame_bytes=0,
        latency_s=0.02, max_attempts=4, malformed=1, fallback=0,
        fail=(("anchor", 429), ("answer", 503), ("frame", 429)), grpo_runs=10,
        store_writes=True),
    "http-frames": Spec(
        name="http-frames", samples=8, per_video=1, frames=32, frame_bytes=150_000,
        latency_s=0.0, max_attempts=3, malformed=1, fallback=0,
        fail=(("anchor", 503),), grpo_runs=4),
}


@dataclass(frozen=True)
class Rule:
    sample_id: str
    video_id: str
    question: str
    gold: str
    near: str
    wrong: str
    pattern: str
    anchor_bad: int
    select: tuple[int, ...]
    pseudo: Optional[tuple[int, ...]]
    evidence: tuple[int, ...]
    fail: dict = field(default_factory=dict)
    stale: bool = False     # absent from the recorded store

    def text(self, outcome: str) -> str:
        return {"C": self.gold, "N": self.near, "W": self.wrong}[outcome]


@dataclass
class Fixture:
    spec: Spec
    seed: int
    rules: list[Rule]       # every sample, manifest order
    # (pipeline, recording) -> the manifest it reads and its samples; recording
    # inputs exist for replay workloads only
    inputs: dict[tuple[str, bool], tuple[Path, list[Rule]]]
    rules_path: Path
    frame_files: int

    def manifest(self, pipeline: str, recording: bool = False) -> Path:
        return self.inputs[(pipeline, recording)][0]

    def samples(self, pipeline: str, recording: bool = False) -> list[Rule]:
        return self.inputs[(pipeline, recording)][1]


def _word(rng: random.Random, letters: str, n: int) -> str:
    return "".join(rng.choice(letters) for _ in range(n))


def _near(rng: random.Random, gold: str) -> str:
    i = len(gold) // 2
    other = rng.choice([c for c in GOLD_LETTERS if c != gold[i]])
    return gold[:i] + other + gold[i + 1:]


def _spread(values: list, n: int, rng: random.Random) -> list:
    """n items cycling through values, shuffled: exact counts."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _frame_bytes(spec: Spec, rng: random.Random, tag: bytes) -> bytes:
    if spec.frame_bytes == 0:
        return PNG_1PX + tag
    body = rng.randbytes(spec.frame_bytes - len(PNG_1PX) - len(tag))
    return PNG_1PX + body + tag


def _profiles(spec: Spec, n: int, rng: random.Random) -> list[dict]:
    a = spec.max_attempts
    patterns = _spread([p[:a] for p in BASE_PATTERNS], n, rng)
    # pseudo keyframes: half hit the selection, a quarter miss it, a quarter have none
    pseudo_kind = _spread(["hit", "hit", "miss", "none"], n, rng)
    evidence_on = _spread([True, True, True, False], n, rng)
    sizes = _spread(list(SELECT_SIZES), n, rng)
    profiles = [{"pattern": p, "pseudo_kind": k, "has_evidence": e, "size": s,
                 "anchor_bad": 0, "fail": {}}
                for p, k, e, s in zip(patterns, pseudo_kind, evidence_on, sizes)]

    def judged(p: str) -> int:
        return sum(c in "CN" for c in p)

    def pick(count: int, ok) -> list[dict]:
        pool = [p for p in profiles if ok(p)]
        if len(pool) < count:
            raise ValueError(f"{spec.name}: not enough samples for profile constraint")
        return rng.sample(pool, count)

    # a never-parsing anchor makes every curation episode a fallback; giving those
    # samples all-wrong answers and no pseudo keyframes keeps the prediction
    # independent of how fallback answers are scored
    for p in pick(spec.fallback, lambda p: judged(p["pattern"]) == 0
                  and p["pseudo_kind"] == "none"):
        p["anchor_bad"] = a
    # a malformed first anchor turns the first curation episode into a fallback;
    # its answer is wrong for the same reason
    for p in pick(spec.malformed, lambda p: p["anchor_bad"] == 0
                  and p["pattern"][0] == "W" and p["pseudo_kind"] != "none"):
        p["anchor_bad"] = 1
    # injected transport failures go to samples RL curation would keep, so a
    # failed sample is visible as a missing corpus record
    for kind, status in spec.fail:
        for p in pick(1, lambda p: p["anchor_bad"] == 0 and not p["fail"]
                      and 0 < judged(p["pattern"]) < a):
            p["fail"] = {kind: status}
    return profiles


def generate(spec: Spec, seed: int, root: Path) -> Fixture:
    structure = random.Random(spec.name)
    rng = random.Random(f"{spec.name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    n_total = spec.samples + spec.stale
    profiles = _profiles(spec, n_total, structure)
    if spec.stale:
        # stale samples are the last ones and must be kept by RL when served
        mixed = [i for i, p in enumerate(profiles[:spec.samples])
                 if p["anchor_bad"] == 0 and not p["fail"]
                 and 0 < sum(c in "CN" for c in p["pattern"]) < spec.max_attempts]
        for k, i in enumerate(structure.sample(mixed, spec.stale)):
            j = spec.samples + k
            profiles[i], profiles[j] = profiles[j], profiles[i]

    frames_dir = root / "frames"
    rules: list[Rule] = []
    questions: set[str] = set()
    frame_files = 0
    video_frames: dict[str, list[str]] = {}
    for idx, prof in enumerate(profiles):
        video_id = f"v{idx // spec.per_video:05d}"
        if video_id not in video_frames:
            vdir = frames_dir / video_id
            vdir.mkdir(parents=True, exist_ok=True)
            paths = []
            for i in range(spec.frames):
                p = vdir / f"{i:04d}.png"
                tag = f"{seed}:{video_id}:{i}".encode().ljust(TAG_BYTES, b"#")[:TAG_BYTES]
                p.write_bytes(_frame_bytes(spec, rng, tag))
                paths.append(str(p))
            video_frames[video_id] = paths
            frame_files += spec.frames
        while True:
            question = f"what does sign {_word(rng, string.ascii_lowercase, 8)} say"
            if question not in questions:
                questions.add(question)
                break
        gold = _word(rng, GOLD_LETTERS, GOLD_LEN)
        select = tuple(sorted(rng.sample(range(spec.frames), prof["size"])))
        rest = [i for i in range(spec.frames) if i not in select]
        pseudo: Optional[tuple[int, ...]] = None
        if prof["pseudo_kind"] == "hit":
            pseudo = tuple(sorted({rng.choice(select), rng.choice(rest)}))
        elif prof["pseudo_kind"] == "miss":
            pseudo = tuple(sorted(rng.sample(rest, 2)))
        evidence = (tuple(sorted(rng.sample(range(spec.frames), rng.randint(1, 3))))
                    if prof["has_evidence"] else ())
        rules.append(Rule(
            sample_id=f"q{idx:05d}", video_id=video_id, question=question, gold=gold,
            near=_near(rng, gold), wrong=_word(rng, WRONG_LETTERS, GOLD_LEN),
            pattern=prof["pattern"], anchor_bad=prof["anchor_bad"], select=select,
            pseudo=pseudo, evidence=evidence, fail=prof["fail"],
            stale=idx >= spec.samples))

    def write(name: str, subset: list[Rule]) -> Path:
        path = root / f"{name}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for r in subset:
                rec = {"sample_id": r.sample_id, "video_id": r.video_id,
                       "question": r.question, "answers": [r.gold],
                       "frames": [{"index": i, "path": p}
                                  for i, p in enumerate(video_frames[r.video_id])],
                       "split": spec.name}
                if r.pseudo is not None:
                    rec["keyframes"] = list(r.pseudo)
                fh.write(json.dumps(rec) + "\n")
        return path

    base = rules[:spec.samples]
    if spec.replay:
        evals = (write("eval", base), base)
        oracle = (write("oracle", base[:spec.oracle_samples]), base[:spec.oracle_samples])
        recorded = base[:spec.curation_samples]
        timed = recorded + rules[spec.samples:]
        curation = {False: (write("curation", timed), timed),
                    True: (write("curation-recorded", recorded), recorded)}
        inputs = {}
        for recording in (False, True):
            inputs.update({("eval", recording): evals, ("oracle", recording): oracle,
                           ("curate_sft", recording): curation[recording],
                           ("curate_rl", recording): curation[recording]})
    else:
        one = (write("manifest", base), base)
        inputs = {(p, False): one for p in ("eval", "oracle", "curate_sft", "curate_rl")}

    b64_len = 4 * ((len(_frame_bytes(spec, random.Random(0), b"#" * TAG_BYTES)) + 2) // 3)
    stub_rules = {
        "latency_s": spec.latency_s, "frames": spec.frames, "cap": CAP,
        "image_b64_len": b64_len,
        "questions": {r.question: {k: v for k, v in asdict(r).items()
                                   if k in ("sample_id", "pattern", "anchor_bad", "select",
                                            "evidence", "fail", "gold", "near", "wrong")}
                      for r in rules},
    }
    rules_path = root / "stub_rules.json"
    rules_path.write_text(json.dumps(stub_rules), encoding="utf-8")
    return Fixture(spec=spec, seed=seed, rules=rules, inputs=inputs,
                   rules_path=rules_path, frame_files=frame_files)


def sharing(fx: Fixture) -> dict:
    """Input properties a cache could exploit: video sharing and repeated frame sends.

    Repeated sends are predicted from the profiles for one eval run and one RL
    curation run (anchor turn sends every frame, answer turn the selection),
    ignoring transport retries.
    """
    spec = fx.spec
    rules = fx.samples("eval")
    per_video: dict[str, int] = {}
    for r in rules:
        per_video[r.video_id] = per_video.get(r.video_id, 0) + 1
    shared = sum(1 for r in rules if per_video[r.video_id] > 1) / len(rules)
    distinct = len(per_video) * spec.frames

    def eval_sends(r: Rule) -> int:
        if r.anchor_bad >= spec.max_attempts:
            return spec.max_attempts * spec.frames + min(CAP, spec.frames)
        return (r.anchor_bad + 1) * spec.frames + len(r.select)

    def rl_sends(r: Rule) -> int:
        total = 0
        for episode in range(spec.max_attempts):
            fallback = episode < r.anchor_bad
            total += spec.frames + (min(CAP, spec.frames) if fallback else len(r.select))
        return total

    ev = sum(eval_sends(r) for r in rules)
    rl = sum(rl_sends(r) for r in fx.samples("curate_rl"))
    rl_distinct = len({r.video_id for r in fx.samples("curate_rl")}) * spec.frames
    return {"samples_sharing_video": shared,
            "repeat_send_frac.eval": 1 - distinct / ev,
            "repeat_send_frac.curate_rl": 1 - rl_distinct / rl}
