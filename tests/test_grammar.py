import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtagent.errors import EmptySelection, MissingActionBlock, UnparsableAction
from vtagent.grammar import (Answer, KeyframeSet, SelectKeyframes, Turn, parse_action,
                             parse_trajectory_text, parse_turn, render_turn,
                             validate_keyframes)


class TestParseAction:
    def test_select_with_f_prefixes(self):
        assert parse_action("select key frame: [F0, F5]") == SelectKeyframes((0, 5))

    def test_select_plural_and_spacing(self):
        assert parse_action("  Select Key Frames : [ 1 ,2, 3 ]") == SelectKeyframes((1, 2, 3))

    def test_answer_trimmed(self):
        assert parse_action("answer:  Starbucks ") == Answer("Starbucks")

    def test_empty_list_rejected(self):
        with pytest.raises(UnparsableAction):
            parse_action("select key frame: []")

    def test_empty_answer_rejected(self):
        with pytest.raises(UnparsableAction):
            parse_action("answer:   ")

    def test_unknown_prefix_rejected(self):
        with pytest.raises(UnparsableAction):
            parse_action("zoom into frame 3")

    @pytest.mark.parametrize("payload", [
        "\u017felect \u212aey frame: [1]",  # "ſ" (U+017F) folds to "s", the Kelvin sign to "k"
        "an\u017fwer: x",
    ])
    def test_keywords_match_in_ascii_case_only(self, payload):
        with pytest.raises(UnparsableAction):
            parse_action(payload)

    def test_unicode_spaces_and_digits_still_parse(self):
        assert parse_action("SELECT\u00a0KEY FRAMES:\u2003[\u0661]") == SelectKeyframes((1,))
        assert parse_action("Answer:\u3000x") == Answer("x")


class TestParseTurn:
    def test_full_turn(self):
        t = parse_turn("<reasoning>frames 3 and 7 show the sign</reasoning>"
                       "<action>select key frame: [3, 7]</action>")
        assert t.reasoning == "frames 3 and 7 show the sign"
        assert t.action == SelectKeyframes((3, 7))

    def test_reasoning_optional(self):
        t = parse_turn("<action>answer: 42 km</action>")
        assert t.reasoning == ""
        assert t.action == Answer("42 km")

    def test_no_tags_raises(self):
        with pytest.raises(MissingActionBlock):
            parse_turn("final thoughts only, no tags")

    def test_doubled_open_tag_closes(self):
        # observed variant: the closing tag repeats the opening form
        t = parse_turn("<reasoning>look at frame 2<reasoning>\n"
                       "<action>select key frame: [2]<action>")
        assert t.reasoning == "look at frame 2"
        assert t.action == SelectKeyframes((2,))

    def test_surrounding_prose_and_case(self):
        t = parse_turn("Sure! Here is my take.\n<REASONING> hmm </REASONING> "
                       "trailing..<Action>answer: yes</Action> bye")
        assert t.reasoning == "hmm"
        assert t.action == Answer("yes")

    def test_tags_found_after_a_character_that_lowercases_to_two(self):
        # "İ" (U+0130) lowercases to "i" and a combining dot
        t = parse_turn("<reasoning>The sign says İSTANBUL</reasoning>\n"
                       "<action>answer: İstanbul</action>")
        assert t.reasoning == "The sign says İSTANBUL"
        assert t.action == Answer("İstanbul")

    def test_first_action_block_wins(self):
        t = parse_turn("<action>answer: first</action><action>answer: second</action>")
        assert t.action == Answer("first")


class TestValidateKeyframes:
    def test_drops_and_reasons(self):
        ks = validate_keyframes(SelectKeyframes((3, 3, 99, 1)), frame_count=10, cap=8)
        assert ks == KeyframeSet(ids=(3, 1), dropped=((3, "duplicate"), (99, "out-of-range")))

    def test_cap_truncates(self):
        ks = validate_keyframes(SelectKeyframes(tuple(range(16))), frame_count=16, cap=8)
        assert ks.ids == tuple(range(8))
        assert all(reason == "over-cap" for _, reason in ks.dropped)

    def test_nothing_survives(self):
        with pytest.raises(EmptySelection):
            validate_keyframes(SelectKeyframes((99,)), frame_count=10, cap=8)


class TestRender:
    def test_canonical_select(self):
        t = Turn(reasoning="r", action=SelectKeyframes((2,)))
        assert render_turn(t) == "<reasoning>r</reasoning>\n<action>select key frame: [2]</action>"

    def test_canonical_answer_empty_reasoning(self):
        t = Turn(reasoning="", action=Answer("x"))
        assert render_turn(t) == "<reasoning></reasoning>\n<action>answer: x</action>"


# text safe inside blocks: no tag-opening character, canonical round-trip strips ends
block_text = st.text(
    alphabet=st.characters(blacklist_characters="<", blacklist_categories=("Cs",)),
).map(str.strip)

actions = st.one_of(
    st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=12)
      .map(lambda ids: SelectKeyframes(tuple(ids))),
    block_text.filter(bool).map(Answer),
)

turns = st.builds(lambda r, a: Turn(reasoning=r, action=a), block_text, actions)


@given(turns)
@example(Turn(reasoning="The sign says İSTANBUL", action=Answer("İstanbul")))
@example(Turn(reasoning="\u017felect \u212aey frame: [1]", action=Answer("an\u017fwer: x")))
@example(Turn(reasoning="an\u017fwer: x", action=Answer("\u017felect \u212aey frame: [1]")))
@settings(max_examples=300)
def test_round_trip(turn):
    back = parse_turn(render_turn(turn))
    assert back.action == turn.action
    assert back.reasoning == turn.reasoning


@given(st.binary(max_size=200))
@settings(max_examples=500)
def test_parse_never_panics_on_bytes(data):
    text = data.decode("utf-8", errors="replace")
    try:
        parse_turn(text)
    except (MissingActionBlock, UnparsableAction):
        pass


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=8))
def test_validate_keyframes_properties(ids, frame_count, cap):
    try:
        ks = validate_keyframes(SelectKeyframes(tuple(ids)), frame_count, cap)
    except EmptySelection:
        assert not any(0 <= i < frame_count for i in ids)
        return
    assert len(ks.ids) <= cap
    assert len(set(ks.ids)) == len(ks.ids)
    assert all(0 <= i < frame_count for i in ks.ids)


def test_parse_trajectory_text_two_turns():
    target = (render_turn(Turn("pick", SelectKeyframes((1, 2)))) + "\n"
              + render_turn(Turn("read", Answer("stop"))))
    turns = parse_trajectory_text(target)
    assert [t.action for t in turns] == [SelectKeyframes((1, 2)), Answer("stop")]


def test_parse_trajectory_text_cuts_after_a_character_that_lowercases_to_two():
    target = (render_turn(Turn("İİ", SelectKeyframes((1,)))) + "\n"
              + render_turn(Turn("İ", Answer("İzmir"))))
    turns = parse_trajectory_text(target)
    assert [(t.reasoning, t.action) for t in turns] == \
        [("İİ", SelectKeyframes((1,))), ("İ", Answer("İzmir"))]
