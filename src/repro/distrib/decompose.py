"""The decomposition program (paper §4.1) and its inverse.

"The decomposition program decomposes the initial state into subregions,
generates local states for each subregion, and saves them in separate
files, called dump files."  Initialization and decomposition are
performed serially by one designated workstation, exactly as the paper
chooses for simplicity.  A run's start, its re-cuts and its collect
share this one writer and one reader.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..core.subregion import assemble_global, make_subregions
from .dumpfile import dump_path, load_dumps, save_dump
from .spec import ProblemSpec

__all__ = ["DumpStepMismatch", "assemble_dumps", "decompose_problem"]


class DumpStepMismatch(RuntimeError):
    """One tag's per-rank dumps sit at different steps."""


def decompose_problem(
    spec: ProblemSpec,
    global_fields: Mapping[str, np.ndarray],
    workdir: str | Path,
    *,
    tag: str = "state",
    step: int = 0,
    extra: Mapping[str, float] | None = None,
) -> list[Path]:
    """Cut a global state at ``step`` into per-rank ``<tag>`` dumps.

    Method-private fields (the LB populations) are materialized here by
    ``init_subregion`` when the state lacks them, so every dump is
    complete: a workstation needs nothing but its dump file and the
    problem spec to participate.  ``spec.json`` is written last, so a
    failed write leaves the old spec in force.  Returns the dump paths
    indexed by rank.
    """
    workdir = Path(workdir)
    methods = spec.build_methods()
    decomp = spec.build_decomposition()
    solid, _, _ = spec.build_geometry()
    subs = make_subregions(decomp, spec.pad, global_fields, solid)
    paths = []
    for sub, method in zip(subs, methods):
        sub.step = step
        sub.extra.update(extra or {})
        method.init_subregion(sub)
        path = dump_path(workdir / "dumps", sub.block.rank, tag=tag)
        save_dump(sub, path)
        paths.append(path)
    spec.save(workdir / "spec.json")
    return paths


def assemble_dumps(
    workdir: str | Path,
    tag: str,
    fill: float = 0.0,
) -> tuple[int, dict[str, np.ndarray], dict[str, float]]:
    """The ``<tag>`` dumps' common step, global fields and rank 0's
    ``extra``.

    The blocks are those of the workdir's current ``spec.json``: a
    rebalance epoch rewrites it with the adopted slab weights.
    Inactive blocks hold ``fill``.  On a hybrid run only the fields
    every rank holds reassemble globally (the LB populations live on
    their own subregions only).
    """
    workdir = Path(workdir)
    decomp = ProblemSpec.load(workdir / "spec.json").build_decomposition()
    subs = load_dumps(workdir / "dumps", decomp.n_active, tag=tag)
    steps = {sub.step for sub in subs}
    if len(steps) != 1:
        raise DumpStepMismatch(f"dumps '{tag}' at different steps: {steps}")
    names = [
        name
        for name in subs[0].field_names()
        if all(name in s.fields for s in subs)
    ]
    fields = {name: assemble_global(decomp, subs, name, fill)
              for name in names}
    return steps.pop(), fields, dict(subs[0].extra)
