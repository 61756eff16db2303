"""Fourth-order numerical-viscosity filter (paper §6).

Fast flow and the interaction between acoustic waves and hydrodynamics
lead to slow-growing numerical instabilities at high Reynolds number;
the paper suppresses them by dissipating spatial frequencies whose
wavelength is comparable to the grid mesh size, using a fourth-order
numerical viscosity (Peyret & Taylor).  The same filter serves both the
finite-difference and the lattice Boltzmann method, applied to the
macroscopic fields ``rho, Vx, Vy(,Vz)`` once per integration step::

    a <- a - eps * sum_axes (a[i-2] - 4 a[i-1] + 6 a[i] - 4 a[i+1] + a[i+2])

The correction is zeroed at any node whose stencil touches a solid wall
node, so wall values stay pinned and the stencil never reads across a
wall; ``eps <= 1/16`` keeps the filter itself stable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.subregion import SubregionState
from ._kernels import (
    Region,
    dilate_star,
    flat_nodes,
    fourth_diff_sum_ops,
    held_back,
    holding,
    node_strides,
    plane_slabs,
    slab_buffers,
    slab_depth,
)

__all__ = ["FourthOrderFilter"]


class FourthOrderFilter:
    """The paper's filter, bound to a strength ``eps``.

    A strength of 0 turns the filter into a no-op (used by conservation
    tests and by low-Reynolds validation runs where it is unnecessary).
    """

    #: nodes of reach of the filter stencil per axis
    reach = 2

    def __init__(self, eps: float):
        if not 0.0 <= eps <= 1.0 / 16.0:
            raise ValueError(f"filter eps {eps} outside [0, 1/16]")
        self.eps = eps

    @property
    def enabled(self) -> bool:
        return self.eps > 0.0

    def build_mask(self, sub: SubregionState) -> None:
        """Precompute the filter strength per node: ``eps`` where
        filtering is allowed, 0 near walls.

        Stored in ``sub.aux['filter_keep']`` as float64 so it multiplies
        straight into the vectorized correction.  Folding ``eps`` into
        the mask changes no bit: ``(x k) eps == x (k eps)`` for
        ``k`` in ``{0, 1}`` and ``eps > 0``, signed zeros and NaN
        included.
        """
        near_wall = dilate_star(sub.solid, self.reach)
        sub.aux["filter_keep"] = np.where(near_wall, 0.0, self.eps)

    def apply(
        self,
        sub: SubregionState,
        names: Sequence[str],
        region: Region,
    ) -> None:
        """Filter the named fields over ``region`` (out-of-place reads).

        A node never reads an already-filtered neighbour — this is what
        makes locally re-filtering ghost ring 1 reproduce the
        neighbouring subregion's interior filtering bit for bit.  The
        correction is swept over the region's padded planes in slabs
        (:func:`~repro.fluids._kernels.plane_slabs`) of at least the
        stencil reach, and each slab is subtracted only after the next
        slab's correction has read the planes it rewrites
        (:func:`~repro.fluids._kernels.held_back`); the sweep is bound
        once per subregion (:meth:`SubregionState.plan
        <repro.core.subregion.SubregionState.plan>`).
        """
        if self.eps == 0.0:   # disabled
            return
        for fn, args in sub.plan("filter", self._bind, names, region).ops:
            fn(*args)

    def _bind(self, sub: SubregionState, names: Sequence[str],
              region: Region):
        shape = sub.padded_shape
        steps = node_strides(shape)
        depth = slab_depth(shape, region, reach=self.reach)
        n = depth * steps[0]
        corr = slab_buffers(sub, ("filter_corr", "filter_corr_next"), (n,))
        tmp = sub.scratch("filter_tmp", (n,))
        keep = flat_nodes(sub.aux["filter_keep"], sub.ndim)
        ops = []
        for name in names:
            field = sub.fields[name]
            a = flat_nodes(field, sub.ndim)
            for k, slab, done in held_back(plane_slabs(shape, region, depth)):
                if slab is not None:
                    out = corr(k)[slab.local]
                    ops += fourth_diff_sum_ops(a, (slab.span,), out,
                                               tmp[slab.local], steps)
                    ops.append((np.multiply, (out, slab.at(keep), out)))
                if done is not None:
                    view = field[done.target]
                    ops.append((np.subtract,
                                (view, done.of(corr(k - 1)), view)))
        return ops, holding(sub, names, aux=("filter_keep",))
