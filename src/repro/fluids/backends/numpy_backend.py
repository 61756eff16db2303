"""The fused NumPy kernels of :class:`~repro.fluids.lbm.LBMethod` and
:class:`~repro.fluids.fd.FDMethod`.

Each kernel works on the per-subregion scratch buffers of
:meth:`repro.core.subregion.SubregionState.scratch` (the ``lb_*``/
``fd_*``/``filter_*`` names) and allocates nothing after the first
step.  What a warmed lattice Boltzmann step still allocates is outside
them, in the ghost fill of ``f``: edge replication
(``core.exchange._replicate_edge``) reads an edge plane that overlaps
its ghost strip in memory, so NumPy copies it through a temporary the
size of the strip (1.76 MB for a 64^3 D3Q15 block).
"""

from __future__ import annotations

import numpy as np

from .._kernels import Region, central_diff, laplacian, region_shape, shift_region

__all__ = ["NumpyBackend"]


#: Bytes of one ``(Q, ...)`` collision scratch buffer: ``lb_relax``
#: sweeps the interior in slabs of axis-0 planes sized to this, so its
#: temporaries stay in L2 instead of streaming through memory once per
#: polynomial term.
LB_SLAB_BYTES = 1 << 20


def lb_relax(method, sub) -> None:
    """BGK collision + Guo forcing; solid nodes do not collide.

    The relaxation towards equilibrium and the forcing term share every
    factor (``w_i``, ``rho``, ``e_i . u``), so the whole collision
    increment collapses into one polynomial per population with
    coefficients precomputed at method construction::

        delta_i = w_i rho [4.5 w eu^2 + A1_i eu + A0_i - s] - w f_i
        s       = 1.5 w |u|^2 + 3 pref (g . u)

    where ``w = 1/tau``, ``pref = 1 - 1/(2 tau)``,
    ``A1_i = 3 w + 9 pref (e_i . g)`` and ``A0_i = w + 3 pref (e_i . g)``.
    Expanding recovers the textbook ``w (f_eq_i - f_i) + S_i`` with the
    Guo source ``S_i = pref w_i [3 (e_i - u) + 9 eu e_i] . (rho g)``.

    The interior is swept in slabs of axis-0 planes, each ``(Q, ...)``
    scratch buffer at most :data:`LB_SLAB_BYTES` (at least one plane).
    Every operation is node-wise, so the slab size changes no bit of
    the result.  All work lands in per-subregion scratch sized to one
    slab (allocation-free after step one); the last, partial slab uses
    views of it.
    """
    region = sub.interior
    ishape = region_shape(region)
    q = method.lattice.q
    plane = ishape[1:]
    per_plane = q * 8 * int(np.prod(plane))
    depth = max(1, min(ishape[0], LB_SLAB_BYTES // per_plane))
    eu = sub.scratch("lb_eu", (q, depth) + plane)
    delta = sub.scratch("lb_delta", (q, depth) + plane)
    s = sub.scratch("lb_usq", (depth,) + plane)
    tmp = sub.scratch("lb_tmp", (depth,) + plane)
    lo = region[0].start
    for start in range(0, ishape[0], depth):
        n = min(depth, ishape[0] - start)
        slab = (slice(lo + start, lo + start + n),) + region[1:]
        _relax_slab(method, sub, slab,
                    eu[:, :n], delta[:, :n], s[:n], tmp[:n])


def _relax_slab(method, sub, region, eu, delta, s, tmp) -> None:
    """:func:`lb_relax` on one slab, into slab-shaped buffers."""
    f = sub.fields["f"]
    rho = sub.fields["rho"][region]
    vels = [sub.fields[n][region] for n in method.vel_names]
    g = method.params.gravity
    omega = method._omega
    # eu <- e_i . u (delta doubles as the per-axis scratch)
    np.multiply(method._e_b[0], vels[0], out=eu)
    for d in range(1, method.ndim):
        np.multiply(method._e_b[d], vels[d], out=delta)
        eu += delta
    # s <- 1.5 w |u|^2 + 3 pref (g . u)
    np.multiply(vels[0], vels[0], out=s)
    for d in range(1, method.ndim):
        np.multiply(vels[d], vels[d], out=tmp)
        s += tmp
    s *= 1.5 * omega
    for d in range(method.ndim):
        if g[d] != 0.0:
            np.multiply(vels[d], 3.0 * method._pref * g[d], out=tmp)
            s += tmp
    # delta <- w_i rho ((4.5 w eu + A1) eu + A0 - s)   (Horner form)
    np.multiply(eu, 4.5 * omega, out=delta)
    delta += method._a1_b
    delta *= eu
    delta += method._a0_b
    delta -= s
    delta *= method._w_b
    delta *= rho
    # delta -= w f  (eu is dead past the polynomial; reuse it)
    fview = f[(slice(None),) + region]
    np.multiply(fview, omega, out=eu)
    delta -= eu
    # Solid nodes keep their populations (no collision).
    delta *= sub.aux["fluid_f"][region]
    fview += delta


def lb_stream(method, sub, region: Region) -> None:
    """Streaming in pull form: ``F_i(x) <- F_i(x - e_i)``."""
    f = sub.fields["f"]
    scratch = sub.aux["f_scratch"]
    for i in range(method.lattice.q):
        src = region
        for d in range(method.ndim):
            e = int(method.lattice.e[i, d])
            if e:
                src = shift_region(src, d, -e)
        scratch[(i,) + region] = f[(i,) + src]
    f[(slice(None),) + region] = scratch[(slice(None),) + region]


def lb_moments(method, sub, region: Region) -> None:
    """Fluid variables from populations (plus Guo half-force shift).

    Density is summed directly into the field view; each momentum is a
    signed sum of population planes written straight into the velocity
    field view (``e`` components are -1/0/+1).
    """
    f = sub.fields["f"]
    view = f[(slice(None),) + region]
    rho = sub.fields["rho"][region]
    np.sum(view, axis=0, out=rho)
    g = method.params.gravity
    fluid = sub.aux["fluid_f"][region]
    for d, name in enumerate(method.vel_names):
        vel = sub.fields[name][region]
        plus, minus = method._mom_idx[d]
        np.subtract(view[plus[0]], view[minus[0]], out=vel)
        for i in plus[1:]:
            vel += view[i]
        for i in minus[1:]:
            vel -= view[i]
        vel /= rho
        if g[d] != 0.0:
            vel += 0.5 * g[d]
        # Walls are no-slip: solid nodes report zero velocity.
        vel *= fluid


def fd_velocity(method, sub) -> None:
    """Forward-Euler momentum update (eqs. 2-3) on the interior.

    All derivative kernels write into per-subregion scratch
    (allocation-free after the first step); the accumulation order
    matches the classic form ``c + dt (-adv - press + visc + g)``.
    The caller (:meth:`FDMethod.compute_phase`) re-enforces no-slip
    afterwards — boundary rules stay backend-independent.
    """
    p = method.params
    region = sub.interior
    rho = sub.fields["rho"]
    vels = [sub.fields[n] for n in method.vel_names]
    vel_mid = [c[region] for c in vels]
    cs2 = p.cs * p.cs
    ishape = vel_mid[0].shape
    acc = sub.scratch("fd_acc", ishape)    # adv + press
    t1 = sub.scratch("fd_t1", ishape)
    t2 = sub.scratch("fd_t2", ishape)

    for d, name in enumerate(method.vel_names):
        c = vels[d]
        # advection: (V . grad) V_d
        central_diff(c, region, 0, p.dx, out=acc)
        acc *= vel_mid[0]
        for ax in range(1, method.ndim):
            central_diff(c, region, ax, p.dx, out=t1)
            t1 *= vel_mid[ax]
            acc += t1
        # pressure: (cs^2 / rho) d rho / d x_d
        central_diff(rho, region, d, p.dx, out=t1)
        np.divide(cs2, rho[region], out=t2)
        t1 *= t2
        acc += t1
        # viscosity: nu * laplacian(V_d)
        laplacian(c, region, p.dx, out=t1, scratch=t2)
        t1 *= p.nu
        # new = c + dt * (visc - (adv + press) + g)
        t1 -= acc
        if p.gravity[d] != 0.0:
            t1 += p.gravity[d]
        t1 *= p.dt
        new = sub.aux["new_" + name][region]
        np.add(c[region], t1, out=new)
    for name in method.vel_names:
        sub.fields[name][region] = sub.aux["new_" + name][region]


def fd_density(method, sub) -> None:
    """Continuity update (eq. 1) with time-(t+dt) velocities.

    The caller has already no-slip-enforced one ghost ring, so the mass
    fluxes below read clean wall velocities.
    """
    p = method.params
    region = sub.interior
    g1 = sub.grown_interior(1)
    rho = sub.fields["rho"]
    # Mass flux rho(t) * V(t+dt), formed over one ring beyond the
    # interior (all its centered difference reads) instead of the
    # whole padded array, into reusable scratch.
    flux = sub.scratch("fd_flux", region_shape(g1))
    inner = tuple(slice(1, 1 + n) for n in sub.block.shape)
    div = sub.scratch("fd_div", region_shape(region))
    term = sub.scratch("fd_term", region_shape(region))
    for d, name in enumerate(method.vel_names):
        np.multiply(rho[g1], sub.fields[name][g1], out=flux)
        target = div if d == 0 else term
        central_diff(flux, inner, d, p.dx, out=target)
        if d > 0:
            div += term
    div *= p.dt
    rho[region] -= div


class NumpyBackend:
    """The kernels one method instance runs.

    Regions are tuples of explicit slices into the padded arrays (see
    :mod:`repro.fluids._kernels`); a kernel writes only inside its
    region and may read up to the method's stencil reach outside it.
    """

    name = "numpy"

    def __init__(self, method) -> None:
        self.method = method

    def lb_relax(self, sub) -> None:
        lb_relax(self.method, sub)

    def lb_stream(self, sub, region) -> None:
        lb_stream(self.method, sub, region)

    def lb_moments(self, sub, region) -> None:
        lb_moments(self.method, sub, region)

    def fd_velocity(self, sub) -> None:
        fd_velocity(self.method, sub)

    def fd_density(self, sub) -> None:
        fd_density(self.method, sub)

    def filter_fields(self, flt, sub, names, region) -> None:
        flt.apply(sub, names, region)

