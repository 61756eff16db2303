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

Beside it, a run with ``diag_every`` set keeps ``hb/diag%04d.bin``: one
fixed-width slot per diagnostics sample, sized once to the whole run,
into which the rank stores its step and its four
:func:`~repro.distrib.diagnostics.local_partials` as exact float64 bits
with their CRC32.  The monitor folds a sample once every rank has
written it.  One slot per sample rather than a ring: a monitor
descheduled for a while must find every sample still there.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path

__all__ = [
    "RECORD_SIZE",
    "SLOT_SIZE",
    "decode_heartbeat",
    "decode_partials",
    "encode_heartbeat",
    "encode_partials",
    "open_heartbeat",
    "open_partials",
    "read_heartbeats",
    "read_partials",
]

#: ``step wall_ms comp_ns crc32`` in fixed-width columns, one line
_BODY = b"%12d %17d %12d "
RECORD_SIZE = len(_BODY % (0, 0, 0)) + 9

#: ``step mass ke max|V| n_nonfinite`` little-endian, then their CRC32
_SLOT_BODY = struct.Struct("<q4d")
SLOT_SIZE = _SLOT_BODY.size + 4


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


def _map(path: Path, size: int) -> mmap.mmap:
    """Map ``path`` read-write at ``size`` bytes.  A file of that size
    keeps its contents (a previous incarnation's records stay readable
    until rewritten); a file of any other size is resized first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        if os.fstat(fd).st_size != size:
            os.ftruncate(fd, size)
        return mmap.mmap(fd, size)
    finally:
        os.close(fd)


def open_heartbeat(workdir: str | Path, rank: int) -> mmap.mmap:
    """Map ``rank``'s heartbeat record for in-place rewrites; the caller
    closes the map.  A resized file fails its checksum until the first
    rewrite."""
    return _map(Path(workdir) / "hb" / f"rank{rank:04d}.txt", RECORD_SIZE)


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


def encode_partials(step: int, partials) -> bytes:
    """One diagnostics slot: ``step`` and its four partials, bit-exact."""
    body = _SLOT_BODY.pack(step, *map(float, partials))
    return body + zlib.crc32(body).to_bytes(4, "little")


def decode_partials(data: bytes) -> tuple[int, tuple[float, ...]] | None:
    """``(step, partials)`` of a whole slot, or ``None`` for anything
    else: unwritten, torn or damaged."""
    if len(data) != SLOT_SIZE:
        return None
    body = data[:-4]
    if int.from_bytes(data[-4:], "little") != zlib.crc32(body):
        return None
    step, *partials = _SLOT_BODY.unpack(body)
    return step, tuple(partials)


def _partials_path(workdir: str | Path, rank: int) -> Path:
    return Path(workdir) / "hb" / f"diag{rank:04d}.bin"


def open_partials(workdir: str | Path, rank: int, slots: int) -> mmap.mmap:
    """Map ``rank``'s ``slots`` diagnostics slots; the caller closes the
    map.  Slot ``k`` holds the sample of step ``(k + 1) * diag_every``."""
    return _map(_partials_path(workdir, rank), slots * SLOT_SIZE)


def read_partials(
    workdir: str | Path, rank: int, index: int
) -> tuple[int, tuple[float, ...]] | None:
    """Decoded slot ``index`` of ``rank``'s diagnostics file, or
    ``None`` while it is missing, unwritten or torn."""
    try:
        with open(_partials_path(workdir, rank), "rb") as fh:
            fh.seek(index * SLOT_SIZE)
            return decode_partials(fh.read(SLOT_SIZE))
    except OSError:
        return None
