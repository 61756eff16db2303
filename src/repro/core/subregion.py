"""Padded per-subregion state (paper §4.2, "padding" / "ghost cells").

Each subregion is padded with ``pad`` layers of extra nodes on the
outside.  Once neighbour data has been copied onto the padded area, the
boundary values are available locally and the computation can proceed
*as if there was no communication at all* — the separation between
computation and communication that lets the same numerical kernels drive
the serial program, the in-process parallel runner, the real
TCP/IP-distributed runtime and the cluster simulator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .decomposition import Block, Decomposition

__all__ = ["Plan", "SubregionState", "make_subregions", "assemble_global"]


class Plan(NamedTuple):
    """A kernel's operations bound to one subregion's arrays.

    ``ops`` are ``(callable, args)`` pairs over prebuilt views, run in
    order as ``fn(*args)``; ``held`` lists the ``(mapping, name,
    array)`` of every field or mask the views point into, each checked
    with ``is`` before a run (:meth:`SubregionState.plan`) — a mapping
    of ``None`` is the subregion's own ``aux``, which a plan must not
    reference: the plan lives in it, and the cycle would keep every
    array of a discarded subregion alive until a full garbage
    collection; ``args`` are the builder arguments the plan was bound
    for.
    """

    ops: tuple[tuple[Callable, tuple], ...]
    held: tuple[tuple[Mapping[str, Any] | None, str, np.ndarray], ...]
    args: tuple


@dataclass
class SubregionState:
    """The local state held by one parallel subprocess.

    Attributes
    ----------
    block:
        The :class:`~repro.core.decomposition.Block` this state covers.
    pad:
        Ghost-layer width, set by the method: ``pad = 4`` for finite
        differences (updates read distance 1, the wall-density rule one
        more, the fourth-order filter two more) and ``pad = 3`` for
        lattice Boltzmann (streaming 1, the filter 2).  Ghost-ring-1
        values are re-filtered locally so that each exchange phase maps
        onto exactly the messages the paper counts (2/step for FD,
        1/step for LB); see ``docs/NUMERICS.md``.
    fields:
        Name -> padded ``float64`` array whose *last* ``ndim`` axes have
        shape ``block.shape + 2*pad``.  Leading axes are allowed for
        per-node vectors (the lattice Boltzmann populations are stored as
        one ``(Q, ...)`` array).
    solid:
        Padded boolean mask of solid-wall nodes.
    step:
        Integration time step this subregion has completed.  Exposed
        because the migration synchronization algorithm (App. B) and the
        un-synchronization analysis (App. A) are statements about this
        counter.
    """

    block: Block
    pad: int
    fields: dict[str, np.ndarray]
    solid: np.ndarray
    step: int = 0
    extra: dict[str, float] = field(default_factory=dict)
    aux: dict[Hashable, Any] = field(default_factory=dict)
    # ``extra`` holds scalar method/runtime state that must survive a dump
    # and restore (migration); ``aux`` holds derived state (masks,
    # scratch, bound kernel plans) that is *not* exchanged and is rebuilt
    # by ``init_subregion`` and the first step after a restore.
    #: padded array shape of every node axis (fixed with the block)
    padded_shape: tuple[int, ...] = field(init=False, repr=False,
                                          compare=False)
    #: slices selecting the owned (non-ghost) nodes of a padded array
    interior: tuple[slice, ...] = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        shape, pad = self.block.shape, self.pad
        self.padded_shape = tuple(n + 2 * pad for n in shape)
        self._rings = tuple(
            tuple(slice(pad - by, pad + n + by) for n in shape)
            for by in range(pad + 1)
        )
        self.interior = self._rings[0]

    @property
    def ndim(self) -> int:
        return len(self.padded_shape)

    def grown_interior(self, by: int) -> tuple[slice, ...]:
        """Interior grown by ``by`` ghost rings on every side.

        Used by kernels that redundantly compute ghost-ring values (the
        filter re-filters ring 1 locally instead of paying a third
        message per step).
        """
        if not 0 <= by <= self.pad:
            raise ValueError(
                f"cannot grow interior by {by}: rings are 0..{self.pad}")
        return self._rings[by]

    def interior_view(self, name: str) -> np.ndarray:
        """View of the owned nodes of field ``name`` (no copy)."""
        return self.fields[name][(...,) + self.interior]

    def add_field(
        self, name: str, fill: float = 0.0, components: int = 0
    ) -> np.ndarray:
        """Allocate a new padded field initialized to ``fill``.

        ``components > 0`` allocates a ``(components, ...)`` per-node
        vector field (used for the lattice Boltzmann populations).
        """
        if name in self.fields:
            raise ValueError(f"field {name!r} already exists")
        shape = self.padded_shape
        if components:
            shape = (components,) + shape
        arr = np.full(shape, fill, dtype=np.float64)
        self.fields[name] = arr
        return arr

    def field_names(self) -> tuple[str, ...]:
        """Names of all padded fields, in insertion order."""
        return tuple(self.fields.keys())

    def scratch(
        self,
        name: str,
        shape: Sequence[int],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A named, reusable work buffer registered in ``aux``.

        The first request under a name allocates; later requests with the
        same shape return the same array, which is what makes a warmed-up
        integration step allocation-free (the fused kernels write into
        these instead of fresh temporaries).  Contents are *not*
        preserved between calls — every user overwrites before reading.
        Like all of ``aux``, scratch is never exchanged or dumped; after
        a restore the pool simply refills on first use.
        """
        shape = tuple(shape)
        arr = self.aux.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            self.aux[name] = arr
        return arr

    def plan(self, key: Hashable, build: Callable, *args) -> Plan:
        """The :class:`Plan` bound under ``key`` in ``aux``.

        ``build(self, *args)`` returns ``(ops, held)``; it runs on the
        first request, whenever ``args`` are not the objects the plan
        was bound for, and whenever a ``held`` array is no longer the
        one its mapping holds (both checked with ``is``): a field
        swapped in by ``lb_init``, a dump load or a test is never read
        through a stale view.  Like scratch, plans are never exchanged
        or dumped; a restored subregion binds its own on first use.
        """
        plan = self.aux.get(key)
        if (plan is not None and len(plan.args) == len(args)
                and all(map(operator.is_, plan.args, args))):
            aux = self.aux
            for source, name, arr in plan.held:
                if (aux if source is None else source)[name] is not arr:
                    break
            else:
                return plan
        ops, held = build(self, *args)
        plan = self.aux[key] = Plan(tuple(ops), tuple(held), args)
        return plan


def make_subregions(
    decomp: Decomposition,
    pad: int,
    global_fields: Mapping[str, np.ndarray],
    solid: np.ndarray | None = None,
) -> list[SubregionState]:
    """Cut global initial-state arrays into padded subregion states.

    This is the core of the paper's *decomposition program* (§4.1): the
    initialization program produces the state of the problem as if there
    was only one workstation, and this routine generates the local state
    for each active subregion.  Ghost areas are filled with the true
    global values where available (so a freshly decomposed run needs no
    warm-up exchange) and with edge-replicated values outside the domain.
    """
    ndim = len(decomp.grid_shape)
    if solid is None:
        solid = np.zeros(decomp.grid_shape, dtype=bool)
    for name, arr in global_fields.items():
        if arr.shape[-ndim:] != decomp.grid_shape:
            raise ValueError(
                f"field {name!r} shape {arr.shape} does not end in grid "
                f"shape {decomp.grid_shape}"
            )

    padded_globals = {
        name: _pad_global(arr, pad, decomp.periodic)
        for name, arr in global_fields.items()
    }
    padded_solid = _pad_global(
        solid.astype(np.float64), pad, decomp.periodic
    ) > 0.5

    subs = []
    for blk in decomp.active_blocks():
        # Slices into the padded global array covering block + ghosts.
        sl = tuple(slice(l, h + 2 * pad) for l, h in zip(blk.lo, blk.hi))
        # .copy() (not ascontiguousarray) — a contiguous slice would
        # otherwise stay a *view* into the padded global array, silently
        # aliasing neighbouring subregions' memory.
        fields = {
            name: arr[(...,) + sl].copy()
            for name, arr in padded_globals.items()
        }
        subs.append(
            SubregionState(
                block=blk,
                pad=pad,
                fields=fields,
                solid=padded_solid[sl].copy(),
            )
        )
    return subs


def _pad_global(
    arr: np.ndarray, pad: int, periodic: Sequence[bool]
) -> np.ndarray:
    """Pad the spatial (trailing) axes of a global array.

    Periodic axes wrap; non-periodic axes replicate the edge value, the
    same rule the exchangers use at physical domain boundaries, so that
    freshly decomposed ghosts match mid-run ghost fills bit for bit.
    """
    out = arr
    lead = arr.ndim - len(periodic)
    for d, per in enumerate(periodic):
        mode = "wrap" if per else "edge"
        width = [(0, 0)] * arr.ndim
        width[lead + d] = (pad, pad)
        out = np.pad(out, width, mode=mode)
    return out


def assemble_global(
    decomp: Decomposition,
    subs: Sequence[SubregionState],
    name: str,
    fill: float = 0.0,
) -> np.ndarray:
    """Reassemble a global field from subregion interiors.

    Inactive (all-solid) blocks are filled with ``fill``.  This is the
    inverse of :func:`make_subregions` and is what the monitoring
    program's periodic state saves amount to.
    """
    lead = subs[0].fields[name].shape[: -decomp.ndim]
    out = np.full(lead + decomp.grid_shape, fill, dtype=np.float64)
    for sub in subs:
        out[(...,) + sub.block.slices] = sub.interior_view(name)
    return out
