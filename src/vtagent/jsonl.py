"""JSON-lines and text files, read by two readers that number lines from 1,
blank ones counted. `read_lines` reads a file written whole (config, script
and partition files; a score log through `read_records`, a manifest through
`data_model`'s reader) and ends lines as universal-newlines mode does.
`read_log` reads an append-only log (the store, each pipeline's output log),
a run of lines per decoder call (`_decode_batch`), ends lines at `\n` only
and cuts a torn last line. Both decode a JSON line alone with `_record`,
which rejects a lone surrogate. `_record_with` decodes a line one of whose
values is already decoded, as `data_model` does with a repeated frames list.
`replaced` opens every output written whole, as `write_lines` does.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Generator, Iterable, Iterator, Optional, TextIO

from .errors import ConfigError, MalformedRecord

_raw_decode = json.JSONDecoder().raw_decode
# read_log decodes about this many bytes of whole lines per decoder call: a
# batch's text and records stay small beside what its caller keeps
_BATCH_BYTES = 1 << 16
# _decode_batch puts this string between two lines, and _record_with puts it
# in the place of a value. json reads the value "\x00" only from this escape
# (strict mode rejects a raw control character in a string), so a line can
# yield that value only by holding a \u escape.
_NUL = '"\\u0000"'
_SEPARATOR = f",{_NUL},".encode()
# strict UTF-8 holds no surrogate, so a decoded string can hold one only from
# a \u escape of D800-DFFF: a line without this match holds none
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _record(line: str, line_no: int, path: Path) -> dict:
    """json.loads(line) if it is a JSON object without a lone surrogate, else
    MalformedRecord naming the line. Private: the benchmark's tracer spans
    every public function."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:  # nested deeper than the interpreter recurses
        raise MalformedRecord(line_no, f"invalid JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise MalformedRecord(line_no, f"record in {path} is not a JSON object")
    if "\\" in line and _SURROGATE_ESCAPE.search(line):  # a memchr, then the pattern
        try:  # a surrogate pair is one character; a lone one cannot be encoded
            json.dumps(obj, ensure_ascii=False).encode()
        except UnicodeEncodeError:
            raise MalformedRecord(line_no, f"record in {path} holds a lone surrogate") from None
    return obj


def _record_with(line: str, key: str, start: int, end: int, value) -> Optional[dict]:
    """json.loads(line) for a line whose text from start to end is the JSON
    text of `value`, when the line with _NUL in that place decodes as an
    object whose top-level `key` is "\\x00"; else None (also for whitespace
    around the object). A line with a backslash is accepted only when the
    spliced text holds no \\u0000 escape but _NUL's and the line no surrogate
    escape. So only _NUL decodes to "\\x00", and a later duplicate key would
    replace it: the value's text stands at that key; and a lone surrogate,
    which _record rejects, is never decoded here. The caller vouches that the
    value's text nests no deeper than the rest of the line, which alone is
    decoded."""
    rest = line[:start] + _NUL + line[end:]
    if "\\" in line and (rest.count("\\u0000") != 1 or _SURROGATE_ESCAPE.search(line)):
        return None
    try:
        obj, stop = _raw_decode(rest)
    except (ValueError, RecursionError):
        return None
    if stop != len(rest) or type(obj) is not dict or obj.get(key) != "\x00":
        return None
    obj[key] = value
    return obj


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its line end) for each line of a
    UTF-8 file written whole. Lines end as in universal-newlines mode; a
    file that is not UTF-8 raises ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                yield line_no, line.removesuffix("\n")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from e


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file written whole (read_lines), never writing it."""
    for line_no, line in read_lines(path):
        if line.strip():
            yield line_no, _record(line, line_no, path)


def _decode_batch(lines: list[bytes]) -> Optional[list]:
    """[json.loads(line.decode()) for line in lines] in one decoder call when
    every line is UTF-8, a JSON object and free of \\u escapes, else None: a
    blank line, say. The lines are decoded as one array with a "\\x00"
    string between each two. As no line holds a \\u escape, no line yields
    a lone surrogate, and each separator the array shows at an odd index is
    one of the separators, so each line is exactly the one value between two
    of them, the value json.loads gives that line alone."""
    data = b"[" + _SEPARATOR.join(lines) + b"]"
    if data.count(b"\\u") != len(lines) - 1:  # a \u escape besides the separators'
        return None
    try:
        text = data.decode()  # strictly, as UTF-8
        values, end = _raw_decode(text)
    except (ValueError, RecursionError):  # the array nests one level deeper than a line
        return None
    records = values[::2]
    if (end != len(text) or len(values) != 2 * len(lines) - 1
            or values[1::2].count("\x00") != len(lines) - 1
            or not all(type(r) is dict for r in records)):
        return None
    return records


def _records(lines: list[bytes], first_line_no: int,
             path: Path) -> Generator[tuple[int, dict], None, Optional[bytes]]:
    """Yield (line number, record) for consecutive lines of the log at path,
    the first numbered first_line_no, and return the torn line that ends
    them, if any (see read_log). Lines that do not decode as one batch are
    read one by one, so a blank line is skipped, a bad line named and a torn
    one found as if no batch were made."""
    records = _decode_batch(lines)
    if records is not None:
        yield from enumerate(records, first_line_no)  # a blank line fails a batch
        return None
    for line_no, raw in enumerate(lines, first_line_no):
        torn = not raw.endswith(b"\n")  # only the last line can lack it
        try:
            line = raw.decode()
        except UnicodeDecodeError as e:
            if torn:  # cut inside a character, say
                return raw
            raise MalformedRecord(line_no, f"invalid UTF-8 in {path}: {e}") from e
        if line.isspace():  # what str.strip() empties
            continue
        try:
            obj = _record(line, line_no, path)
        except MalformedRecord as e:
            if torn and e.__cause__ is not None:  # not JSON, rather than JSON but no object
                return raw
            raise
        yield line_no, obj


def read_log(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of an append-only
    JSONL log: none if it does not exist, and the OSError of its open if it
    cannot be read (a directory, say). Only `\n` ends a line.

    A kill mid-append can leave a last line without its newline. If that line
    is not UTF-8 or not JSON, it is cut off the file; else its newline is
    added. Either way the next append starts a line of its own. Any other
    line that is not UTF-8, not a JSON object or holding a lone surrogate
    raises MalformedRecord.
    """
    path = Path(path)
    if not path.exists():
        return
    line, line_no, torn = b"\n", 1, None
    with path.open("rb") as fh:
        while torn is None and (lines := fh.readlines(_BATCH_BYTES)):
            torn = yield from _records(lines, line_no, path)
            line_no += len(lines)
            line = lines[-1]
    if torn is not None:
        with path.open("r+b") as fh:
            fh.truncate(fh.seek(0, 2) - len(torn))
    elif not line.endswith(b"\n"):
        with path.open("ab") as fh:
            fh.write(b"\n")


@contextmanager
def replaced(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file, written with no newline translation, at a temporary
    path beside path, renamed over path when the block ends. A kill or an
    error mid-write leaves the previous file whole: a reader never sees a
    torn one, as it can a log. An error also removes the temporary file
    before it propagates."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line and a newline to path, replaced whole."""
    with replaced(path) as fh:
        fh.writelines(line + "\n" for line in lines)
