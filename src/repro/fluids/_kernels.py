"""Shared array kernels: stencils and plane-slab plan builders.

Every field carries ``pad`` ghost layers, so a centered difference at a
node reads neighbours that never leave the array, and the very same
kernel code runs in the serial program and in every parallel transport
(the separation of computation from communication the paper builds on,
§4.2).

A strided region view costs NumPy one short inner loop per region row,
so the hot kernels sweep the *flat, contiguous* span of whole padded
axis-0 planes (rows in 2D) that a region occupies instead, in L2-sized
slabs (:func:`slab_depth`, :func:`plane_slabs`): a neighbour along axis
``d`` is the flat offset ``±stride[d]``, a node-wise kernel is one long
inner loop per operation, and values computed at ghost positions
between the region's rows are never committed — each kernel writes
back only ``field[region]`` from its slab buffer (:meth:`Slab.of`), or
adds an increment that is ``±0`` off the region over the whole span.

Nothing here computes on its own: the helpers *bind*.  A kernel's plan
builder walks the slabs once and collects every operation of the sweep
as a ``(ufunc, args)`` pair over prebuilt views — the flat field spans
shifted by ``±stride``, the scratch slices, the commit targets — into a
:class:`~repro.core.subregion.Plan` kept in ``sub.aux``; every later
step runs those pairs as they stand (:meth:`SubregionState.plan
<repro.core.subregion.SubregionState.plan>`).  The stencil builders
(:func:`central_diff_ops`, :func:`second_diff_ops`,
:func:`laplacian_ops`, :func:`fourth_diff_sum_ops`) bind on either
form: a region of an N-d array with unit shifts, or a one-slice span of
a flat array with ``step``/``steps`` set to the axis strides.  The
region-form stencils (:func:`central_diff` and the rest) run the same
operations once, on buffers allocated when omitted, so buffered and
allocating calls and the bound plans are bitwise identical.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

Region = tuple[slice, ...]
#: one bound operation: ``fn(*args)``
Op = tuple[Callable, tuple]

__all__ = [
    "Op",
    "Region",
    "SLAB_BYTES",
    "Slab",
    "flat_nodes",
    "held_back",
    "holding",
    "node_strides",
    "plane_slabs",
    "run_ops",
    "slab_buffers",
    "slab_depth",
    "shift_region",
    "region_shape",
    "central_diff",
    "central_diff_ops",
    "copy_op",
    "second_diff",
    "second_diff_ops",
    "laplacian",
    "laplacian_ops",
    "fourth_diff_sum",
    "fourth_diff_sum_ops",
    "dilate_star",
]


def shift_region(region: Region, axis: int, by: int) -> Region:
    """Shift a region of slices by ``by`` nodes along ``axis``.

    Only plain ``slice(start, stop)`` entries are supported (the padded
    regions used by the kernels), so the arithmetic is exact and cheap.
    """
    out = list(region)
    sl = region[axis]
    if sl.start is None or sl.stop is None or sl.step not in (None, 1):
        raise ValueError(f"region slice {sl} must be explicit with step 1")
    out[axis] = slice(sl.start + by, sl.stop + by)
    return tuple(out)


def region_shape(region: Region) -> tuple[int, ...]:
    """The array shape a region of explicit slices selects."""
    shape = []
    for sl in region:
        if sl.start is None or sl.stop is None or sl.step not in (None, 1):
            raise ValueError(f"region slice {sl} must be explicit with step 1")
        shape.append(sl.stop - sl.start)
    return tuple(shape)


def copy_op(dst: np.ndarray, src: np.ndarray) -> Op:
    """``dst[...] = src`` as a bound operation: a slot call, which
    (unlike ``np.copyto``) runs no Python-level dispatcher."""
    return (dst.__setitem__, (Ellipsis, src))


def run_ops(ops: Sequence[Op]) -> None:
    """Run bound operations in order."""
    for fn, args in ops:
        fn(*args)


def _axis_steps(region: Region, steps: Sequence[int] | None):
    """``(axis, step)`` per stencil axis: unit shifts along each axis of
    an N-d region, or the given strides along the one axis of a span."""
    if steps is None:
        return [(axis, 1) for axis in range(len(region))]
    return [(0, step) for step in steps]


# ----------------------------------------------------------------------
# stencils: operation builders and their region-form runs
# ----------------------------------------------------------------------
def central_diff_ops(
    a: np.ndarray, at: Region, axis: int, dx: float, out: np.ndarray,
    step: int = 1,
) -> list[Op]:
    """Second-order centered first derivative of ``a`` on ``at`` into
    ``out``: ``(a[+step] - a[-step]) / 2 dx``.

    ``step`` is the index distance of one node along ``axis`` (the axis
    stride on a flat span).
    """
    return [
        (np.subtract, (a[shift_region(at, axis, +step)],
                       a[shift_region(at, axis, -step)], out)),
        (np.true_divide, (out, 2.0 * dx, out)),
    ]


def second_diff_ops(
    a: np.ndarray, at: Region, axis: int, dx: float, out: np.ndarray,
    step: int = 1,
) -> list[Op]:
    """Second-order centered second derivative of ``a`` on ``at`` into
    ``out``.

    The division by ``dx^2`` is skipped when it is exactly 1.0 (lattice
    units): dividing by one changes no bit.
    """
    ops = [
        (np.multiply, (a[at], 2.0, out)),
        (np.subtract, (a[shift_region(at, axis, +step)], out, out)),
        (np.add, (out, a[shift_region(at, axis, -step)], out)),
    ]
    h2 = dx * dx
    if h2 != 1.0:
        ops.append((np.true_divide, (out, h2, out)))
    return ops


def laplacian_ops(
    a: np.ndarray, at: Region, dx: float, out: np.ndarray,
    scratch: np.ndarray, steps: Sequence[int] | None = None,
) -> list[Op]:
    """Centered Laplacian (sum of per-axis second differences) into
    ``out``; ``scratch`` holds one per-axis second difference while it
    is added.  ``steps`` (the axis strides) selects the flat-span form.
    """
    (axis, step), *rest = _axis_steps(at, steps)
    ops = second_diff_ops(a, at, axis, dx, out, step)
    for axis, step in rest:
        ops += second_diff_ops(a, at, axis, dx, scratch, step)
        ops.append((np.add, (out, scratch, out)))
    return ops


def fourth_diff_sum_ops(
    a: np.ndarray, at: Region, out: np.ndarray, scratch: np.ndarray,
    steps: Sequence[int] | None = None,
) -> list[Op]:
    """Sum over axes of the undivided fourth difference, into ``out``.

    Per axis: ``a[i-2] - 4 a[i-1] + 6 a[i] - 4 a[i+1] + a[i+2]`` — the
    stencil of the fourth-order numerical-viscosity filter
    (Peyret & Taylor) the paper applies to ``rho, Vx, Vy(,Vz)`` every
    step to suppress node-to-node spatial frequencies (§6).

    The center coefficient is hoisted out of the axis loop
    (``6 * ndim * a``), so the whole stencil costs one fused pass per
    shifted read plus a single ``scratch`` buffer for the odd neighbours.
    ``steps`` (the axis strides) selects the flat-span form.
    """
    axes = _axis_steps(at, steps)
    ops = [(np.multiply, (a[at], 6.0 * len(axes), out))]
    for axis, step in axes:
        ops += [
            (np.add, (out, a[shift_region(at, axis, -2 * step)], out)),
            (np.add, (out, a[shift_region(at, axis, +2 * step)], out)),
            (np.add, (a[shift_region(at, axis, -step)],
                      a[shift_region(at, axis, +step)], scratch)),
            (np.multiply, (scratch, 4.0, scratch)),
            (np.subtract, (out, scratch, out)),
        ]
    return ops


def _buffer(a: np.ndarray, region: Region, out: np.ndarray | None):
    return np.empty(region_shape(region), dtype=a.dtype) if out is None \
        else out


def central_diff(a, region, axis, dx, out=None):
    """:func:`central_diff_ops` run once on ``region``; returns ``out``
    (allocated when omitted)."""
    out = _buffer(a, region, out)
    run_ops(central_diff_ops(a, region, axis, dx, out))
    return out


def second_diff(a, region, axis, dx, out=None):
    """:func:`second_diff_ops` run once on ``region``; returns ``out``."""
    out = _buffer(a, region, out)
    run_ops(second_diff_ops(a, region, axis, dx, out))
    return out


def laplacian(a, region, dx, out=None, scratch=None):
    """:func:`laplacian_ops` run once on ``region``; returns ``out``
    (``out`` and ``scratch`` allocated when omitted)."""
    out = _buffer(a, region, out)
    scratch = np.empty_like(out) if scratch is None else scratch
    run_ops(laplacian_ops(a, region, dx, out, scratch))
    return out


def fourth_diff_sum(a, region, out=None, scratch=None):
    """:func:`fourth_diff_sum_ops` run once on ``region``; returns
    ``out`` (``out`` and ``scratch`` allocated when omitted)."""
    out = _buffer(a, region, out)
    scratch = np.empty_like(out) if scratch is None else scratch
    run_ops(fourth_diff_sum_ops(a, region, out, scratch))
    return out


# ----------------------------------------------------------------------
# plane-slab sweeps
# ----------------------------------------------------------------------
#: Bytes of one slab buffer (``(Q, ...)`` or single-valued): the swept
#: kernels cut a region's axis-0 planes into slabs sized to it, so a
#: slab's three to five buffers stay in L2 across the kernel's passes
#: (256 KiB measured best for the filter and the FD updates with 2 MiB
#: of L2 per core; a 64^3 D3Q15 buffer exceeds it and holds one plane).
#: Every swept operation is node-wise, or reads neighbours that are
#: committed only after it has read them, so the slab size changes no
#: bit.
SLAB_BYTES = 1 << 18


def flat_nodes(arr: np.ndarray, ndim: int) -> np.ndarray:
    """View of a padded field with its ``ndim`` node axes flattened.

    Leading (per-node vector) axes are kept.  Never a copy: writes
    through the view must land in the field.
    """
    if not arr.flags.c_contiguous:
        raise ValueError("flat kernels need C-contiguous fields")
    return arr.reshape(arr.shape[: arr.ndim - ndim] + (-1,))


def holding(sub, fields: Sequence[str] = (), aux: Sequence[str] = ()):
    """The ``held`` entries of a plan whose views point into the named
    fields and ``aux`` arrays of ``sub`` (its own ``aux`` is named by
    ``None``, see :class:`~repro.core.subregion.Plan`)."""
    return [(sub.fields, name, sub.fields[name]) for name in fields] + [
        (None, name, sub.aux[name]) for name in aux
    ]


def node_strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Flat index distance of one node along each axis of ``shape``."""
    out = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        out[d] = out[d + 1] * shape[d + 1]
    return tuple(out)


class Slab(NamedTuple):
    """A run of whole padded axis-0 planes of a region.

    ``span`` is the contiguous run of flat node indices a kernel
    computes, from the slab's first region node to its last; ``local``
    is the same run in a slab buffer whose index 0 is the first node of
    the slab's first plane.  ``target`` is the slab's share of the
    region in the padded array, the only nodes a kernel commits.
    """

    target: Region
    span: slice
    local: slice
    planes: tuple[int, ...]

    def of(self, buf: np.ndarray) -> np.ndarray:
        """The view of a slab buffer (last axis flat) at ``target``."""
        n = math.prod(self.planes)
        lead = buf.shape[:-1]
        whole = buf[..., :n].reshape(lead + self.planes)
        return whole[(Ellipsis, slice(None)) + self.target[1:]]

    def at(self, flat: np.ndarray, by: int = 0) -> np.ndarray:
        """The view of a flat field (last axis flat) over ``span``
        shifted by ``by`` nodes."""
        return flat[..., self.span.start + by:self.span.stop + by]


def slab_depth(
    shape: Sequence[int], region: Region, width: int = 1, reach: int = 0
) -> int:
    """Planes per slab when sweeping ``region`` of a ``shape`` array.

    As many whole padded planes as fit a ``width``-valued buffer in
    :data:`SLAB_BYTES`, at most the region's plane count and at least
    ``max(1, reach)``: a kernel that commits into the field it reads
    holds each slab back until the next one is computed, which is safe
    once a slab spans the stencil's reach.
    """
    plane = 8 * width * math.prod(shape[1:])
    planes = region[0].stop - region[0].start
    return max(1, reach, min(planes, SLAB_BYTES // plane))


def plane_slabs(
    shape: Sequence[int], region: Region, depth: int
) -> Iterator[Slab]:
    """The slabs of ``depth`` planes (the last may be partial) that
    cover ``region``, in ascending plane order."""
    strides = node_strides(shape)
    inner_lo = sum(sl.start * s for sl, s in zip(region[1:], strides[1:]))
    inner_hi = 1 + sum(
        (sl.stop - 1) * s for sl, s in zip(region[1:], strides[1:])
    )
    lo, hi = region[0].start, region[0].stop
    for z0 in range(lo, hi, depth):
        z1 = min(z0 + depth, hi)
        end = (z1 - z0 - 1) * strides[0] + inner_hi
        base = z0 * strides[0]
        yield Slab(
            target=(slice(z0, z1),) + tuple(region[1:]),
            span=slice(base + inner_lo, base + end),
            local=slice(inner_lo, end),
            planes=(z1 - z0,) + tuple(shape[1:]),
        )


def held_back(
    slabs: Iterator[Slab],
) -> Iterator[tuple[int, Slab | None, Slab | None]]:
    """``(k, slab, done)``: each slab with the one before it, then a
    last ``(k, None, last)``.

    A kernel that rewrites a field its stencil reads computes ``slab``
    into buffer ``k % 2`` and only then commits ``done`` from buffer
    ``(k - 1) % 2``: no slab left to compute reads ``done``'s planes
    once slabs span the stencil reach.
    """
    done = None
    k = 0
    for k, slab in enumerate(slabs):
        yield k, slab, done
        done = slab
    yield k + 1, None, done


def slab_buffers(sub, names: tuple[str, str], shape: Sequence[int]):
    """``buf(k)``: the scratch buffer of slab ``k`` of a held-back sweep,
    ``names[k % 2]``; the second is allocated only once a sweep has a
    second slab."""
    return lambda k: sub.scratch(names[k % 2], shape)


def dilate_star(mask: np.ndarray, reach: int) -> np.ndarray:
    """Dilate a boolean mask by ``reach`` nodes along each axis (star).

    ``dilate_star(solid, 2)`` marks every node whose filter stencil
    touches a solid node; the filter correction is zeroed there so that
    wall values stay pinned and no stencil ever reads across a wall.
    Edges are handled by clipping (no wraparound): the mask is padded by
    edge replication, matching the ghost-fill convention.
    """
    out = mask.copy()
    for axis in range(mask.ndim):
        acc = out.copy()
        for by in range(1, reach + 1):
            acc |= _shift_clip(out, axis, +by)
            acc |= _shift_clip(out, axis, -by)
        out = acc
    return out


def _shift_clip(mask: np.ndarray, axis: int, by: int) -> np.ndarray:
    """Shift a mask along ``axis``, replicating the trailing edge."""
    out = np.empty_like(mask)
    src: list[slice] = [slice(None)] * mask.ndim
    dst: list[slice] = [slice(None)] * mask.ndim
    edge: list[slice] = [slice(None)] * mask.ndim
    if by > 0:
        src[axis] = slice(0, mask.shape[axis] - by)
        dst[axis] = slice(by, None)
        edge[axis] = slice(0, by)
        edge_src = [slice(None)] * mask.ndim
        edge_src[axis] = slice(0, 1)
    else:
        src[axis] = slice(-by, None)
        dst[axis] = slice(0, mask.shape[axis] + by)
        edge[axis] = slice(mask.shape[axis] + by, None)
        edge_src = [slice(None)] * mask.ndim
        edge_src[axis] = slice(mask.shape[axis] - 1, None)
    out[tuple(dst)] = mask[tuple(src)]
    out[tuple(edge)] = mask[tuple(edge_src)]
    return out
