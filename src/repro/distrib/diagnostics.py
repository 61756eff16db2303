"""In-flight global diagnostics, folded by the monitoring program.

The paper's monitor "checks every few minutes whether the parallel
processes are progressing correctly" (§4.1) — but a worker that starts
spewing NaNs keeps stepping and heartbeating happily until the run ends
or stalls.  This module gives the run a physical pulse: every ``every``
steps each rank stores its partials of total mass, kinetic energy, max
|V| (a CFL/Mach sentinel for the weakly-compressible methods) and the
non-finite count in its diagnostics slots
(:mod:`repro.distrib.heartbeat`).  The monitor folds each sample once
every rank has written it (:func:`fold_sample`), appends the record to
the run's ``diagnostics.jsonl`` and stops the run on a global NaN or
CFL violation — a *diagnosed* failure instead of a stall timeout.

In-process runs fold the same partials in the same rank order
(:func:`serial_diagnostics`), so a distributed diagnostic stream can be
validated bit-for-bit against a serial one; every runtime judges a
record by the one abort rule, :func:`check_record`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .._jsonl import LogDamaged, locked_append, read_jsonl
from .heartbeat import read_partials

__all__ = [
    "DEFAULT_VMAX",
    "DiagRecord",
    "DiagnosticsFailure",
    "DiagnosticsLog",
    "check_record",
    "local_partials",
    "fold_partials",
    "fold_sample",
    "serial_diagnostics",
]

#: Default max-|V| abort threshold: the lattice speed of sound
#: ``c_s = 1/sqrt(3)``.  Both methods are weakly-compressible, valid for
#: Mach << 1; a velocity at c_s means the run is physically gone even if
#: it has not overflowed yet.
DEFAULT_VMAX = 1.0 / np.sqrt(3.0)


class DiagnosticsFailure(RuntimeError):
    """A globally-reduced quantity crossed an abort threshold."""

    def __init__(self, record: "DiagRecord", reason: str) -> None:
        super().__init__(f"step {record.step}: {reason}")
        self.record = record
        self.reason = reason


@dataclass
class DiagRecord:
    """One globally-reduced diagnostics sample (a JSONL line)."""

    step: int
    total_mass: float
    kinetic_energy: float
    max_speed: float
    n_nonfinite: int
    wall_time: float = 0.0

    def to_line(self) -> str:
        """Serialize as one JSON line (non-strict JSON carries NaN)."""
        return json.dumps(asdict(self)) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "DiagRecord":
        """Build a record from one parsed JSON line."""
        return cls(
            step=int(d["step"]),
            total_mass=float(d["total_mass"]),
            kinetic_energy=float(d["kinetic_energy"]),
            max_speed=float(d["max_speed"]),
            n_nonfinite=int(d["n_nonfinite"]),
            wall_time=float(d.get("wall_time", 0.0)),
        )


class DiagnosticsLog:
    """Reader/writer of a run's ``diagnostics.jsonl``.

    Appends are flock'd and fsync'd like every other shared file of the
    run; the reader drops a torn final line (a crash mid-append) and
    raises :class:`~repro._jsonl.LogDamaged` on any other damaged line.
    """

    FILENAME = "diagnostics.jsonl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @classmethod
    def for_workdir(cls, workdir: str | Path) -> "DiagnosticsLog":
        """The canonical per-run log location."""
        return cls(Path(workdir) / cls.FILENAME)

    def append(self, *records: DiagRecord) -> None:
        """Append records in one write (locked, fsync'd)."""
        locked_append(self.path, "".join(r.to_line() for r in records))

    def read(self) -> list[DiagRecord]:
        """All complete records, oldest first."""
        out = []
        for lineno, _, rec in read_jsonl(self.path):
            try:
                out.append(DiagRecord.from_dict(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise LogDamaged(self.path, lineno, str(exc)) from None
        return out


def local_partials(sub) -> np.ndarray:
    """One subregion's contribution: ``[mass, ke, max|V|, n_nonfinite]``.

    Computed over the *interior* fluid nodes only (ghosts belong to the
    neighbour, solids carry no fluid).  The first two entries fold with
    ``sum``, the last two with ``max``.
    """
    interior_solid = sub.solid[sub.interior]
    fluid = ~interior_solid
    rho = sub.interior_view("rho")[fluid]
    vsq = np.zeros_like(rho)
    checked = [rho]
    for name in ("u", "v", "w"):
        if name in sub.fields:
            vel = sub.interior_view(name)[fluid]
            vsq += vel * vel
            checked.append(vel)
    mass = float(rho.sum())
    ke = float(0.5 * (rho * vsq).sum())
    max_speed = float(np.sqrt(vsq.max())) if vsq.size else 0.0
    n_nonfinite = int(sum(np.count_nonzero(~np.isfinite(a))
                          for a in checked))
    return np.array([mass, ke, max_speed, float(n_nonfinite)])


def fold_partials(parts: list[np.ndarray]) -> np.ndarray:
    """Rank-ordered serial fold of partials — the bit-for-bit reference
    for every runtime."""
    sums = parts[0][:2]
    maxs = parts[0][2:]
    for p in parts[1:]:
        sums = np.add(sums, p[:2])
        maxs = np.maximum(maxs, p[2:])
    return np.concatenate([sums, maxs])


def _record(step: int, folded: np.ndarray) -> DiagRecord:
    return DiagRecord(
        step=int(step),
        total_mass=float(folded[0]),
        kinetic_energy=float(folded[1]),
        max_speed=float(folded[2]),
        n_nonfinite=int(folded[3]),
        wall_time=time.time(),
    )


def serial_diagnostics(subs, step: int | None = None) -> DiagRecord:
    """Global diagnostics of in-process subregions.

    Folds every subregion's partials in rank order — exactly what the
    monitor folds from a distributed run's slots — so the record is
    bit-for-bit what a distributed run of the same decomposition
    reports.
    """
    folded = fold_partials([local_partials(s) for s in subs])
    return _record(subs[0].step if step is None else step, folded)


def fold_sample(
    workdir: str | Path, n_ranks: int, every: int, index: int
) -> DiagRecord | None:
    """The record of diagnostics sample ``index`` (step
    ``(index + 1) * every``) folded from every rank's slot in rank
    order, or ``None`` until all ``n_ranks`` have written it."""
    step = (index + 1) * every
    parts = []
    for rank in range(n_ranks):
        sample = read_partials(workdir, rank, index)
        if sample is None or sample[0] != step:
            return None
        parts.append(np.array(sample[1]))
    return _record(step, fold_partials(parts))


def check_record(record: DiagRecord) -> None:
    """The abort rule: raise :class:`DiagnosticsFailure` on a global NaN,
    or on a max speed above :data:`DEFAULT_VMAX`.
    """
    if record.n_nonfinite:
        raise DiagnosticsFailure(
            record,
            f"non-finite values in the global state "
            f"(a rank reported {record.n_nonfinite} bad nodes)",
        )
    if record.max_speed > DEFAULT_VMAX:
        raise DiagnosticsFailure(
            record,
            f"max |V| = {record.max_speed:.4f} exceeds the "
            f"CFL/Mach sentinel {DEFAULT_VMAX:.4f}",
        )
