"""JSON-lines and text files. `read_records` reads a file written whole (a
manifest, a score log) and never writes it. `read_log` reads an append-only
log (the transcript store, each pipeline's output log), a run of lines per
decoder call (`_decode_batch`), and cuts a torn last line. Both decode a
line alone with `_record`. `read_text` reads config, script and partition
files; `replaced` opens every output written whole, as `write_lines` does.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Generator, Iterable, Iterator, Optional, TextIO

from .errors import ConfigError, MalformedRecord

_raw_decode = json.JSONDecoder().raw_decode
# read_log decodes about this many bytes of whole lines per decoder call: a
# batch's text and records stay small beside what its caller keeps
_BATCH_BYTES = 1 << 16
# _decode_batch puts this string between two lines. json reads the value
# "\x00" only from this escape (strict mode rejects a raw control character
# in a string), so a line can yield that value only by holding the escape.
_NUL_ESCAPE = b"\\u0000"
_SEPARATOR = b',"' + _NUL_ESCAPE + b'",'


def _record(line: str, line_no: int, path: Path) -> dict:
    """json.loads(line) if it is a JSON object, else MalformedRecord naming
    the line. Private: the benchmark's tracer spans every public function."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:  # nested deeper than the interpreter recurses
        raise MalformedRecord(line_no, f"invalid JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise MalformedRecord(line_no, f"record in {path} is not a JSON object")
    return obj


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file written whole, never writing it. Lines end as in universal-newlines
    mode; a file that is not UTF-8 raises ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.isspace():  # what str.strip() empties
                    yield line_no, _record(line, line_no, path)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from e


def _decode_batch(lines: list[bytes]) -> Optional[list]:
    """[json.loads(line.decode()) for line in lines] in one decoder call when
    every line is UTF-8 and a JSON object, else None. The lines are decoded
    as one array with a "\\x00" string between each two. When no line holds
    that string's escape, each separator the array shows at an odd index is
    one of the separators, so each line is exactly the one value between two
    of them, the value json.loads gives that line alone."""
    data = b"[" + _SEPARATOR.join(lines) + b"]"
    if data.count(_NUL_ESCAPE) != len(lines) - 1:
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
             path: Path) -> Generator[dict, None, Optional[bytes]]:
    """Yield the records of consecutive lines of the log at path, the first
    numbered first_line_no, and return the torn line that ends them, if
    any (see read_log). Lines that do not decode as one batch are read one
    by one, so a bad line is named, and a torn one found, as if no batch
    were made."""
    records = _decode_batch([line for line in lines if not line.isspace()])
    if records is not None:
        yield from records
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
        yield obj


def read_log(path: str | Path) -> Iterator[dict]:
    """Yield the records of an append-only JSONL log: none if it does not
    exist, and the OSError of its open if it cannot be read (a directory,
    say). Only `\n` ends a line; a `\r` is part of its line.

    A kill mid-append can leave a last line without its newline. If that line
    is not UTF-8 or not JSON, it is cut off the file; else its newline is
    added. Either way the next append starts a line of its own. Any other
    line that is not UTF-8 or not a JSON object raises MalformedRecord.
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


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 raises ConfigError
    naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from e


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
