"""Structured agent output format: tagged reasoning/action blocks.

The format is the wire contract between model and harness. Two payloads
exist: "select key frame: [3, 7]" and "answer: <text>". Parsing is tolerant
(surrounding prose, case-insensitive tags, the doubled-open-tag variant where
a second "<reasoning>" closes the block); rendering is canonical and
bit-exact. All functions here are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import EmptySelection, MissingActionBlock, UnparsableAction


@dataclass(frozen=True)
class SelectKeyframes:
    frame_ids: tuple[int, ...]


@dataclass(frozen=True)
class Answer:
    text: str


Action = Union[SelectKeyframes, Answer]


@dataclass(frozen=True)
class Turn:
    reasoning: str
    action: Action
    raw: str = ""


@dataclass(frozen=True)
class KeyframeSet:
    ids: tuple[int, ...]
    dropped: tuple[tuple[int, str], ...] = ()


# The keywords match in any ASCII case only, as the tags do: with Unicode case
# folding "ſ" (U+017F) would match "s" and the Kelvin sign "K" (U+212A) "k".
# \s and \d keep their Unicode meaning.
_SELECT_RE = re.compile(r"^(?a:select)\s+(?a:key)\s*(?a:frames?)\s*:\s*\[([^\]]*)\]",
                        re.IGNORECASE | re.DOTALL)
_ANSWER_RE = re.compile(r"^(?a:answer)\s*:\s*(.*)$", re.IGNORECASE | re.DOTALL)
_ID_RE = re.compile(r"^[Ff]?\s*(-?\d+)$")
# Tags are found in the text itself, in any ASCII case: text.lower() can be
# longer than text ("İ", U+0130, lowercases to two characters), so offsets
# found there would not fit the text.
_TAGS = {tag: (re.compile(f"<{tag}>", re.IGNORECASE | re.ASCII),
               re.compile(f"</?{tag}>", re.IGNORECASE | re.ASCII))  # a close or a reopen
         for tag in ("reasoning", "action")}
_ACTION_CLOSE_RE = re.compile("</action>", re.IGNORECASE | re.ASCII)


def parse_action(payload: str) -> Action:
    payload = payload.strip()
    m = _SELECT_RE.match(payload)
    if m:
        items = [tok.strip() for tok in m.group(1).split(",") if tok.strip()]
        if not items:
            raise UnparsableAction(payload)
        ids = []
        for tok in items:
            im = _ID_RE.match(tok)
            if not im:
                raise UnparsableAction(payload)
            ids.append(int(im.group(1)))
        return SelectKeyframes(frame_ids=tuple(ids))
    m = _ANSWER_RE.match(payload)
    if m:
        text = m.group(1).strip()
        if not text:
            raise UnparsableAction(payload)
        return Answer(text=text)
    raise UnparsableAction(payload)


def _extract_block(text: str, tag: str) -> str | None:
    """First tagged block's content. A repeated opening tag also closes
    (the malformed-but-observed variant)."""
    open_tag, end_tag = _TAGS[tag]
    start = open_tag.search(text)
    if start is None:
        return None
    end = end_tag.search(text, start.end())
    return text[start.end():end.start() if end else len(text)]


def parse_turn(text: str) -> Turn:
    reasoning_block = _extract_block(text, "reasoning")
    reasoning = reasoning_block.strip() if reasoning_block is not None else ""
    action_block = _extract_block(text, "action")
    if action_block is None:
        raise MissingActionBlock()
    return Turn(reasoning=reasoning, action=parse_action(action_block), raw=text)


def render_action(action: Action) -> str:
    if isinstance(action, SelectKeyframes):
        return "select key frame: [" + ", ".join(str(i) for i in action.frame_ids) + "]"
    return f"answer: {action.text}"


def render_turn(turn: Turn) -> str:
    return f"<reasoning>{turn.reasoning}</reasoning>\n<action>{render_action(turn.action)}</action>"


def parse_trajectory_text(text: str) -> list[Turn]:
    """Parse a concatenation of rendered turns (e.g. an SFT target)."""
    turns: list[Turn] = []
    rest = text
    while rest.strip():
        close = _ACTION_CLOSE_RE.search(rest)
        if close is None:
            turns.append(parse_turn(rest))
            break
        cut = close.end()
        turns.append(parse_turn(rest[:cut]))
        rest = rest[cut:]
    if not turns:
        raise MissingActionBlock()
    return turns


def validate_keyframes(action: SelectKeyframes, frame_count: int, cap: int) -> KeyframeSet:
    """Drop out-of-range ids and duplicates, then truncate to the first cap ids."""
    if frame_count < 1 or cap < 1:
        raise ValueError("frame_count and cap must be >= 1")
    kept: list[int] = []
    dropped: list[tuple[int, str]] = []
    for fid in action.frame_ids:
        if not 0 <= fid < frame_count:
            dropped.append((fid, "out-of-range"))
        elif fid in kept:
            dropped.append((fid, "duplicate"))
        elif len(kept) >= cap:
            dropped.append((fid, "over-cap"))
        else:
            kept.append(fid)
    if not kept:
        raise EmptySelection(f"no valid keyframe ids in {list(action.frame_ids)}")
    return KeyframeSet(ids=tuple(kept), dropped=tuple(dropped))
