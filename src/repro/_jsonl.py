"""Append-only line logs: one locked appender, and a JSON-lines reader
that refuses damage loudly.

:func:`locked_append` writes one whole line under an exclusive flock,
so a crash mid-append can tear only the *last* line of a log.  The next
append cuts that torn tail off before it writes, so every record starts
on a fresh line and a torn line never ends up in the middle of a log.
The reader drops a torn final line; an unparsable line anywhere else is
damage (media, a foreign writer, a manual edit) and raises
:class:`LogDamaged` naming the file and the line, instead of silently
losing the record it held.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Iterator

__all__ = ["LogDamaged", "locked_append", "read_jsonl"]

_TAIL_CHUNK = 4096


def _drop_torn_tail(fh: BinaryIO) -> None:
    """Truncate ``fh`` after its last newline (a no-op when the file is
    empty or already ends in one)."""
    end = pos = fh.seek(0, os.SEEK_END)
    while pos > 0:
        start = max(0, pos - _TAIL_CHUNK)
        fh.seek(start)
        cut = fh.read(pos - start).rfind(b"\n")
        if cut >= 0:
            pos = start + cut + 1
            break
        pos = start
    if pos < end:
        os.ftruncate(fh.fileno(), pos)


def locked_append(path: str | Path, line: str) -> None:
    """Append ``line`` (ending in a newline) to ``path`` under an
    exclusive flock, first cutting off a torn last line left by a
    writer that crashed mid-append."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            _drop_torn_tail(fh)
            fh.write(line.encode())
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


class LogDamaged(ValueError):
    """A line other than the last of an append-only log is damaged."""

    def __init__(self, path: str | Path, lineno: int, detail: str):
        self.path = Path(path)
        self.lineno = lineno
        super().__init__(f"{self.path}, line {lineno}: {detail}")


def read_jsonl(path: str | Path, text: str) -> Iterator[tuple[int, str, Any]]:
    """``(lineno, line, record)`` for each line of ``text``, the
    contents of the log at ``path``; a torn final line is skipped."""
    lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # or nested too deep
            if lineno == len(lines):
                return  # torn final line from a crashed writer
            raise LogDamaged(path, lineno, f"unparsable line: {exc}") from None
        yield lineno, line, record
