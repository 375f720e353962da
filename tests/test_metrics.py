import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dp_lev
from vtagent.errors import EmptyScoreSet
from vtagent.grammar import KeyframeSet
from vtagent.metrics import (MetricReport, SampleScore, aggregate, anls,
                             exact_accuracy, hit, levenshtein, normalize_answer)


def brute_lev(a: str, b: str) -> int:
    """Independent oracle: naive recursion over all edit scripts."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        brute_lev(a[1:], b) + 1,
        brute_lev(a, b[1:]) + 1,
        brute_lev(a[1:], b[1:]) + (a[0] != b[0]),
    )


class TestNormalize:
    def test_strip_case_period(self):
        assert normalize_answer("  Starbucks. ") == "starbucks"

    def test_collapse_whitespace(self):
        assert normalize_answer("No  Parking") == "no parking"

    def test_empty(self):
        assert normalize_answer("") == ""


class TestExactAccuracy:
    def test_case_fold(self):
        assert exact_accuracy("lisboa", ["Lisboa"]) == 1

    def test_mismatch(self):
        assert exact_accuracy("lisbon", ["Lisboa"]) == 0

    def test_empty_pred(self):
        assert exact_accuracy("", ["x"]) == 0


class TestLevenshtein:
    def test_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identity(self):
        assert levenshtein("same", "same") == 0

    # the common prefix and suffix are trimmed before the DP; each case is
    # checked against the untrimmed brute force
    @pytest.mark.parametrize("a,b,want", [
        ("starbucks", "starbuck", 1),          # shared prefix only
        ("parking", "smoking", 3),             # shared suffix only
        ("stop", "stopped", 3),                # one string a prefix of the other
        ("aba", "ab", 1),                      # prefix and suffix overlap in "ab"
        ("abab", "ab", 2),
        ("no parking", "no parking", 0),       # equal
        ("caf\U0001F600e", "caf\u00e9e", 1),  # a non-BMP character is one scalar
        ("\U0001F600x", "\U0001F600", 1),
    ])
    def test_affix_trim(self, a, b, want):
        assert levenshtein(a, b) == levenshtein(b, a) == brute_lev(a, b) == want


class TestAnls:
    def test_near_miss(self):
        assert anls("helo", ["hello"]) == pytest.approx(0.8)

    def test_below_threshold_zeroed(self):
        assert anls("xyz", ["hello"]) == 0.0

    def test_exact(self):
        assert anls("hello", ["hello"]) == 1.0

    def test_both_empty(self):
        assert anls("", [""]) == 1.0

    def test_max_over_golds(self):
        assert anls("helo", ["zzzzz", "hello"]) == pytest.approx(0.8)


class TestHit:
    def test_intersection(self):
        assert hit(KeyframeSet(ids=(3, 7)), {7, 9}) is True

    def test_disjoint(self):
        assert hit(KeyframeSet(ids=(1,)), {2}) is False

    def test_singleton(self):
        assert hit(KeyframeSet(ids=(5,)), {5}) is True


class TestAggregate:
    def test_means_x100(self):
        scores = [SampleScore("a", 1, 1.0), SampleScore("b", 0, 0.8)]
        r = aggregate(scores)
        assert r.mean_accuracy == pytest.approx(50.0)
        assert r.mean_anls == pytest.approx(90.0)
        assert r.hit_rate is None

    def test_hit_rate_over_defined_subset(self):
        scores = [SampleScore("a", 1, 1.0, hit=True),
                  SampleScore("b", 0, 0.0, hit=True),
                  SampleScore("c", 0, 0.0, hit=False),
                  SampleScore("d", 1, 1.0, hit=None)]
        r = aggregate(scores)
        assert r.hit_rate == pytest.approx(200 / 3)  # d, without a hit, is not counted

    def test_empty_raises(self):
        with pytest.raises(EmptyScoreSet):
            aggregate([])


short = st.text(alphabet="abcde", max_size=6)
# what the bit vectors meet: strings longer than one 64-bit word, runs of one
# character, astral and combining code points (each one scalar), empty sides
ALPHABETS = ("ab", "abcde", "e\u0301\u00e9\U0001F600\U00010348 ")
wide = st.sampled_from(ALPHABETS).flatmap(lambda alphabet: st.one_of(
    st.text(alphabet=alphabet, max_size=150),
    st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 70)), max_size=4)
    .map(lambda runs: "".join(c * n for c, n in runs))))


@given(short, short)
@settings(max_examples=200)
def test_lev_matches_brute_force(a, b):
    assert levenshtein(a, b) == brute_lev(a, b) == dp_lev(a, b)


@given(wide, wide)
@settings(max_examples=300, deadline=None)
def test_lev_matches_dp_on_long_and_astral_strings(a, b):
    assert levenshtein(a, b) == dp_lev(a, b)


@pytest.mark.parametrize("a,b", [
    ("a" * 64, "a" * 65), ("a" * 65, "b" * 65), ("ab" * 40, "ba" * 40),
    ("x" * 200, ""), ("", "\U0001F600" * 70), ("e\u0301" * 40, "\u00e9" * 40),
    ("a" * 63 + "b", "b" + "a" * 64)])
def test_lev_across_word_boundaries(a, b):
    assert levenshtein(a, b) == levenshtein(b, a) == dp_lev(a, b)


@given(wide, wide, wide)
@settings(max_examples=200, deadline=None)
def test_lev_metric_axioms(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(wide, wide)
@settings(deadline=None)
def test_threshold_gate(pred, gold):
    score = anls(pred, [gold])
    assert score == 0.0 or score >= 0.5


@given(wide, wide)
@settings(deadline=None)
def test_exact_match_dominates(pred, gold):
    if exact_accuracy(pred, [gold]) == 1:
        assert anls(pred, [gold]) == 1.0


@given(st.lists(st.integers(0, 9), min_size=1, max_size=5).map(tuple),
       st.sets(st.integers(0, 9), min_size=1, max_size=5),
       st.integers(0, 9))
def test_hit_monotone(ids, annotated, extra):
    base = hit(KeyframeSet(ids=ids), annotated)
    grown = hit(KeyframeSet(ids=ids + (extra,)), annotated)
    assert not (base and not grown)
