"""Answer scoring: normalization, exact accuracy, ANLS, keyframe hit rate.

ANLS follows the community-standard definition: max over golds of the
normalized edit similarity, zeroed below the threshold (0.5). Normalization
is deliberately minimal — lowercase, whitespace collapse, terminal period
strip — and is applied identically on both sides of every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import EmptyScoreSet
from .grammar import KeyframeSet


@dataclass(frozen=True)
class SampleScore:
    sample_id: str
    accuracy: int  # 0 or 1
    anls: float
    hit: Optional[bool] = None  # defined only when pseudo keyframes + a selection exist


@dataclass(frozen=True)
class MetricReport:
    split_tag: str
    n: int
    mean_accuracy: float  # x100
    mean_anls: float      # x100
    hit_rate: Optional[float] = None  # x100, over samples with hit defined


def normalize_answer(text: str) -> str:
    out = " ".join(text.lower().split())
    if out.endswith("."):
        out = out[:-1].rstrip()
    return out


def exact_accuracy(pred: str, golds: Sequence[str]) -> int:
    if not golds:
        raise ValueError("golds must be non-empty")
    p = normalize_answer(pred)
    return 1 if any(p == normalize_answer(g) for g in golds) else 0


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalar values, bit-parallel.

    A common prefix or suffix never changes the distance, so both are trimmed
    first: equal strings cost one comparison. The rest runs Myers' bit-vector
    algorithm (J. ACM 46(3), 1999) in Hyyrö's form for the global distance:
    a column of the DP table is kept as the bit vectors of its +1 and -1
    vertical steps over the shorter string, in Python ints of any width, and
    each character of the longer string advances it by a fixed handful of
    integer operations. Exact at any length.
    """
    if a == b:
        return 0
    start, end = 0, min(len(a), len(b))
    while start < end and a[start] == b[start]:
        start += 1
    cut = 0  # the suffix stops where the prefix ends: "aba", "ab" trims "ab" once
    while cut < end - start and a[-1 - cut] == b[-1 - cut]:
        cut += 1
    a, b = a[start:len(a) - cut], b[start:len(b) - cut]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match: dict[str, int] = {}  # bit i of match[c] is set where b[i] == c
    bit = 1
    for c in b:
        match[c] = match.get(c, 0) | bit
        bit <<= 1
    mask, last = bit - 1, bit >> 1
    # The paper's names: bit i of vp / vn is set where row i + 1 of the
    # current column is one more / one less than row i, of hp / hn where
    # row i + 1 is one more / one less than in the previous column, and of
    # d0 where the diagonal step costs nothing. Column 0 is 0..len(b), so
    # every vertical step starts at +1.
    vp, vn, dist = mask, 0, len(b)
    for c in a:
        eq = match.get(c, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        if hp & last:  # the last row's step is the distance's
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1  # row 0 is 0..len(a): its step is always +1
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = hp & d0
    return dist


def anls(pred: str, golds: Sequence[str]) -> float:
    if not golds:
        raise ValueError("golds must be non-empty")
    p = normalize_answer(pred)
    best = 0.0
    for g in golds:
        gn = normalize_answer(g)
        longest = max(len(p), len(gn))
        if longest == 0:
            s = 1.0
        else:
            s = 1.0 - levenshtein(p, gn) / longest
        best = max(best, s)
    return best if best >= 0.5 else 0.0


def hit(selected: KeyframeSet, annotated: frozenset[int] | set[int]) -> bool:
    if not annotated:
        raise ValueError("annotated set must be non-empty")
    return bool(set(selected.ids) & set(annotated))


def aggregate(scores: Iterable[SampleScore], split_tag: str = "") -> MetricReport:
    scores = list(scores)
    if not scores:
        raise EmptyScoreSet("no scores to aggregate")
    n = len(scores)
    mean_acc = 100.0 * sum(s.accuracy for s in scores) / n
    mean_anls = 100.0 * sum(s.anls for s in scores) / n
    with_hit = [s for s in scores if s.hit is not None]
    hit_rate = (100.0 * sum(1 for s in with_hit if s.hit) / len(with_hit)
                if with_hit else None)
    return MetricReport(split_tag=split_tag, n=n, mean_accuracy=mean_acc,
                        mean_anls=mean_anls, hit_rate=hit_rate)


def format_report(report: MetricReport) -> str:
    """Aligned-column text row: ACC. / ANLS (x100, 2 decimals for display)."""
    name = report.split_tag or "all"
    hit_col = f"{report.hit_rate:8.2f}" if report.hit_rate is not None else "       -"
    return f"{name:<24} {report.n:>6} {report.mean_accuracy:8.2f} {report.mean_anls:8.2f} {hit_col}"


REPORT_HEADER = f"{'split':<24} {'n':>6} {'ACC.':>8} {'ANLS':>8} {'Hit%':>8}"
