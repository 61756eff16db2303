"""The run journal: what happened to a distributed run, one JSON line each.

The monitor appends to ``logs/monitor.jsonl``, each rank to
``logs/rank%04d.jsonl``.  A record is ``{"t": <wall stamp>, "who":
"monitor" | <rank>, "step": <int, -1 if none>, "kind": <str>, "msg":
<str>}``; ``kind`` is ``note`` (a log line), ``chaos:<fault kind>`` or
``recover:<action>`` (the recovery ledger
:func:`repro.chaos.check_recovery_ledger` audits), ``fatal`` (a
worker's traceback) or ``stop`` (the monitor's diagnosis: ``msg`` is
the reason, ``step`` the failing sample's).  Appends go through
:func:`~repro._jsonl.locked_append`, so a writer killed mid-line tears
only that line, and its next incarnation cuts it off.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .._jsonl import LogDamaged, locked_append, read_jsonl

__all__ = ["MONITOR", "Journal", "read_journal"]

#: the ``who`` of the monitor's records
MONITOR = "monitor"

_TYPES = {"t": (int, float), "who": (str, int), "step": int,
          "kind": str, "msg": str}


class Journal:
    """One writer's journal file: the monitor's or one rank's."""

    def __init__(self, workdir: str | Path, who: str | int) -> None:
        self.who = who
        name = who if who == MONITOR else f"rank{who:04d}"
        self.path = Path(workdir) / "logs" / f"{name}.jsonl"

    def write(self, kind: str, msg: str, step: int = -1) -> None:
        """Append one record."""
        locked_append(self.path, json.dumps({
            "t": time.time(),  # wall stamp: orders records across writers
            "who": self.who, "step": step, "kind": kind, "msg": msg,
        }) + "\n")


def read_journal(workdir: str | Path) -> list[dict]:
    """Every writer's complete records, ordered by wall stamp.

    A torn last line is dropped; any other line that is not a record
    raises :class:`~repro._jsonl.LogDamaged` naming the file and line.
    """
    records = []
    for path in sorted(Path(workdir).glob("logs/*.jsonl")):
        for lineno, _, rec in read_jsonl(path):
            if not isinstance(rec, dict) or rec.keys() != _TYPES.keys() or any(
                isinstance(rec[key], bool) or not isinstance(rec[key], types)
                for key, types in _TYPES.items()
            ):
                raise LogDamaged(path, lineno, "not a journal record")
            records.append(rec)
    return sorted(records, key=lambda rec: rec["t"])
