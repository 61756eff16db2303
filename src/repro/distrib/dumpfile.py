"""Dump files: the unit of distribution, checkpointing and migration.

The decomposition program "generates local states for each subregion,
and saves them in separate files, called dump files.  These files
contain all the information that is needed by a workstation to
participate in a distributed computation" (§4.1).  The same format
serves three roles: initial distribution, the periodic state saves the
monitoring program restarts from after an unrecoverable error, and the
save/restore pair at the heart of process migration (§5.1) — migration
"is equivalent to stopping the computation, saving the entire state on
disk, and then restarting; except, we only save the state of the
migrating process".

Format: a single ``.npz`` holding every padded field array, the solid
mask, and a JSON-encoded manifest (block geometry, pad, step counter,
scalar extras).  Writes go to a temporary name followed by an atomic
rename so a crash mid-save can never corrupt the last good dump.

The atomic rename protects against a *crash mid-save*; it cannot
protect against the media itself (a failing disk, a truncating NFS
server).  The manifest therefore records a CRC32 per stored array, and
:func:`load_dump` refuses a dump whose bytes no longer match with a
:class:`DumpCorruption` — which is what lets the monitoring program
fall back to the *previous* complete checkpoint instead of restarting
into garbage (§4.1).  An array without a checksum is refused the same
way: a manifest edited to drop its ``crc32`` entries cannot smuggle
unverified state past the check.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..core.decomposition import Block
from ..core.subregion import SubregionState

__all__ = [
    "save_dump",
    "load_dump",
    "load_dumps",
    "dump_path",
    "verify_dump",
    "DumpCorruption",
]

_FIELD_PREFIX = "field__"


class DumpCorruption(RuntimeError):
    """A dump file failed its integrity checks (checksum, structure)."""

    def __init__(self, path: str | Path, detail: str):
        self.path = Path(path)
        super().__init__(f"corrupt dump {self.path}: {detail}")


def dump_path(directory: str | Path, rank: int, tag: str = "state") -> Path:
    """Canonical dump-file name for a rank (``<dir>/<tag>_rank<k>.npz``)."""
    return Path(directory) / f"{tag}_rank{rank:04d}.npz"


def save_dump(sub: SubregionState, path: str | Path) -> None:
    """Atomically save a subregion's complete state."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {_FIELD_PREFIX + k: v for k, v in sub.fields.items()}
    arrays["solid"] = sub.solid
    manifest = {
        "index": list(sub.block.index),
        "lo": list(sub.block.lo),
        "hi": list(sub.block.hi),
        "rank": sub.block.rank,
        "active": sub.block.active,
        "pad": sub.pad,
        "step": sub.step,
        "extra": {k: float(v) for k, v in sub.extra.items()},
        # Per-record integrity: CRC32 of each array's raw bytes, so a
        # restart can reject a silently corrupted checkpoint (§4.1).
        "crc32": {
            name: zlib.crc32(np.ascontiguousarray(v).tobytes())
            for name, v in arrays.items()
        },
    }
    tmp = path.with_suffix(".tmp.npz")
    with open(tmp, "wb") as fh:
        np.savez(fh, manifest=json.dumps(manifest), **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_dumps(
    directory: str | Path, n_ranks: int, tag: str = "state"
) -> list[SubregionState]:
    """Load one tag's dump for every rank, in dense-rank order.

    The unit the rebalance coordinator consumes: all ranks of one
    epoch, ready for :func:`repro.core.subregion.assemble_global`.
    """
    return [
        load_dump(dump_path(directory, rank, tag=tag))
        for rank in range(n_ranks)
    ]


def load_dump(path: str | Path) -> SubregionState:
    """Restore a subregion from a dump file.

    Method-private ``aux`` arrays (masks, scratch) are *not* stored;
    the worker rebuilds them via ``method.init_subregion`` after the
    restore, exactly like a freshly decomposed subregion.

    Raises :class:`DumpCorruption` when the file is structurally
    damaged (truncated archive, unreadable member) or an array lacks or
    fails its manifest CRC32.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(str(data["manifest"]))
            fields = {
                name[len(_FIELD_PREFIX):]: np.ascontiguousarray(data[name])
                for name in data.files
                if name.startswith(_FIELD_PREFIX)
            }
            solid = np.ascontiguousarray(data["solid"])
    except (zipfile.BadZipFile, KeyError, OSError, EOFError,
            ValueError) as exc:
        raise DumpCorruption(path, f"unreadable archive: {exc}") from exc
    checksums = manifest.get("crc32", {})
    arrays = {_FIELD_PREFIX + k: v for k, v in fields.items()}
    arrays["solid"] = solid
    missing = sorted(checksums.keys() - arrays.keys())
    if missing:
        raise DumpCorruption(path, f"checksummed array {missing[0]!r} missing")
    for name, arr in arrays.items():
        want = checksums.get(name)
        if want is None:
            raise DumpCorruption(path, f"array {name!r} has no CRC32")
        got = zlib.crc32(arr.tobytes())
        if got != want:
            raise DumpCorruption(
                path,
                f"array {name!r} CRC32 mismatch "
                f"(stored {want:#010x}, computed {got:#010x})",
            )
    block = Block(
        index=tuple(manifest["index"]),
        lo=tuple(manifest["lo"]),
        hi=tuple(manifest["hi"]),
        rank=int(manifest["rank"]),
        active=bool(manifest["active"]),
    )
    sub = SubregionState(
        block=block,
        pad=int(manifest["pad"]),
        fields=fields,
        solid=solid,
        step=int(manifest["step"]),
    )
    sub.extra.update(manifest.get("extra", {}))
    return sub


def verify_dump(path: str | Path) -> None:
    """Raise :class:`DumpCorruption` unless the dump loads and checks out.

    What the monitoring program runs against every rank's dump of a
    checkpoint before restarting from it.
    """
    load_dump(path)
