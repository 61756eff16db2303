"""Per-rank heartbeat records for the monitoring program (§4.1).

Every rank reports its progress after each step in ``hb/rank%04d.txt``:
its step counter, a wall stamp and the EMA of its per-step compute
seconds (the :class:`~repro.balance.LoadEstimator`'s input).  The rank
maps the file once and rewrites one fixed-width record in place, so the
step path makes no system call: ``pwrite`` on a descriptor kept open
still updates the file's mtime through the ext4 journal on every write
that lands in a new clock tick, which at a 2-3 ms step costs more than
the rest of the heartbeat.  The values are written as integers (wall
milliseconds, compute nanoseconds) because formatting floats costs
several times more on a cache-cold step path.

A reader racing an in-place rewrite can see a prefix of the new record
followed by the tail of the old one.  Each record therefore ends with
the CRC32 of its own text, and :func:`decode_heartbeat` rejects any
record that fails it, as it rejects an empty or foreign file.
"""

from __future__ import annotations

import mmap
import os
import zlib
from pathlib import Path

__all__ = [
    "RECORD_SIZE",
    "decode_heartbeat",
    "encode_heartbeat",
    "open_heartbeat",
    "read_heartbeats",
]

#: ``step wall_ms comp_ns crc32`` in fixed-width columns, one line
_BODY = b"%12d %17d %12d "
RECORD_SIZE = len(_BODY % (0, 0, 0)) + 9


def encode_heartbeat(step: int, wall: float, comp: float) -> bytes:
    """One record: ``step``, ``wall`` stamp, ``comp`` seconds per step."""
    body = _BODY % (step, round(wall * 1e3), round(comp * 1e9))
    record = b"%s%08x\n" % (body, zlib.crc32(body))
    if len(record) != RECORD_SIZE:
        raise ValueError(
            f"heartbeat ({step}, {wall}, {comp}) overflows its "
            f"{RECORD_SIZE}-byte record"
        )
    return record


def decode_heartbeat(data: bytes) -> tuple[int, float, float] | None:
    """``(step, wall, comp)`` of a whole record, or ``None`` for
    anything else: empty, torn, foreign or damaged."""
    if len(data) != RECORD_SIZE or not data.endswith(b"\n"):
        return None
    body, crc = data[:-9], data[-9:-1]
    try:
        if int(crc, 16) != zlib.crc32(body):
            return None
        step, wall_ms, comp_ns = map(int, body.split())
    except ValueError:
        return None
    return step, wall_ms / 1e3, comp_ns / 1e9


def open_heartbeat(workdir: str | Path, rank: int) -> mmap.mmap:
    """Map ``rank``'s heartbeat record for in-place rewrites; the caller
    closes the map.  A previous incarnation's record stays readable
    until the first rewrite; a file of any other size is resized to one
    record (which then fails its checksum until the first rewrite)."""
    hb_dir = Path(workdir) / "hb"
    hb_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(hb_dir / f"rank{rank:04d}.txt", os.O_RDWR | os.O_CREAT)
    try:
        if os.fstat(fd).st_size != RECORD_SIZE:
            os.ftruncate(fd, RECORD_SIZE)
        return mmap.mmap(fd, RECORD_SIZE)
    finally:
        os.close(fd)


def read_heartbeats(
    workdir: str | Path,
) -> dict[int, tuple[int, float, float]]:
    """Per-rank ``(step, wall, comp)`` of every valid heartbeat record
    under ``workdir``; a missing, empty or torn file is skipped."""
    out: dict[int, tuple[int, float, float]] = {}
    for path in (Path(workdir) / "hb").glob("rank*.txt"):
        try:
            record = decode_heartbeat(path.read_bytes())
        except OSError:
            continue
        if record is not None:
            out[int(path.stem[len("rank"):])] = record
    return out
