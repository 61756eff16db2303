"""The fused NumPy kernels of :class:`~repro.fluids.lbm.LBMethod` and
:class:`~repro.fluids.fd.FDMethod`.

Every kernel sweeps the flat, contiguous span of the whole padded
axis-0 planes (rows in 2D) its region occupies, in L2-sized slabs
(:func:`repro.fluids._kernels.plane_slabs`): node-wise work runs as one
long inner loop per operation instead of one short loop per region row,
and stencil neighbours are flat offsets (``±stride[axis]``).  Results
land in slab-sized per-subregion scratch (the ``lb_*``/``fd_*``/
``filter_*`` names of :meth:`repro.core.subregion.SubregionState.scratch`)
and only the region's nodes are committed, so values computed at ghost
positions are thrown away.  The collision is the one exception: its
increment is masked to ``±0`` off the region and added over the whole
contiguous span, which is cheaper than a strided commit and leaves
those bytes as they were.  No kernel changes a field byte outside its
region.  A kernel that rewrites a field its stencil reads (the pull
stream, the density update, the filter) commits each slab only after
the next one has been computed.  A product or quotient by a factor of
exactly 1.0 (``dt``, ``dx^2`` in lattice units) is skipped: it changes
no bit.  Nothing here allocates after the first step.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (
    Region,
    central_diff,
    flat_nodes,
    held_back,
    laplacian,
    node_strides,
    plane_slabs,
    slab_depth,
)

__all__ = ["lb_init", "lb_relax", "lb_stream", "lb_moments",
           "fd_velocity", "fd_density"]

#: The kernel set's name: a method's ``backend`` is this module, and the
#: bench manifest records ``backend.name`` per workload.
name = "numpy"


def lb_init(method, sub) -> None:
    """Equilibrium populations over the whole padded array, written
    slab by slab straight into a fresh ``f``."""
    shape = sub.padded_shape
    q = method.lattice.q
    everything = tuple(slice(0, n) for n in shape)
    depth = slab_depth(shape, everything, q)
    n = depth * math.prod(shape[1:])
    eu = np.empty((q // 2, n))
    usq = np.empty(n)
    tmp = np.empty(n)
    f = np.empty((q,) + shape)
    sub.fields["f"] = f
    f = flat_nodes(f, method.ndim)
    rho = flat_nodes(sub.fields["rho"], method.ndim)
    vels = [flat_nodes(sub.fields[v], method.ndim) for v in method.vel_names]
    for slab in plane_slabs(shape, everything, depth):
        span, loc = slab.span, slab.local
        method.equilibrium(
            rho[span], [v[span] for v in vels], out=f[:, span],
            eu=eu[:, loc], usq=usq[loc], tmp=tmp[loc],
        )


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

    A slab costs at most eleven passes over its ``(Q, n)`` buffers:
    ``e_i . u`` is formed for half the rows by signed sums
    (:meth:`LBMethod.pair_eu`) and the polynomial shares it with the
    opposite rows (:meth:`LBMethod.pair_polynomial`); the fluid-and-
    interior mask ``keep`` is folded into ``rho`` and ``w`` as node-sized
    products, so ``delta`` is ``±0`` at solid nodes and on the ghost
    columns of the span, and the increment is added over the whole
    contiguous span.  Adding ``±0`` changes no population that is not
    ``-0.0``: no byte outside the region changes, and every population
    inside gets the bits of the per-population Horner form.
    """
    region = sub.interior
    shape = sub.padded_shape
    q = method.lattice.q
    depth = slab_depth(shape, region, q)
    n = depth * math.prod(shape[1:])
    eu = sub.scratch("lb_eu", (q, n))
    delta = sub.scratch("lb_delta", (q, n))
    s = sub.scratch("lb_usq", (n,))
    tmp = sub.scratch("lb_tmp", (n,))
    keep = sub.scratch("lb_keep", (n,))
    rho_keep = sub.scratch("lb_rho_keep", (n,))
    # keep <- 1 on the region's columns of every slab plane, 0 on ghosts
    keep.fill(0.0)
    keep.reshape((depth,) + tuple(shape[1:]))[
        (slice(None),) + tuple(region[1:])] = 1.0
    ndim = method.ndim
    f = flat_nodes(sub.fields["f"], ndim)
    rho = flat_nodes(sub.fields["rho"], ndim)
    vels = [flat_nodes(sub.fields[v], ndim) for v in method.vel_names]
    fluid = flat_nodes(sub.aux["fluid_f"], ndim)
    g = method.params.gravity
    omega = method._omega
    for slab in plane_slabs(shape, region, depth):
        span, loc = slab.span, slab.local
        e, dl, ss, t, rk = (eu[:, loc], delta[:, loc], s[loc], tmp[loc],
                            rho_keep[loc])
        u = [v[span] for v in vels]
        # s <- 1.5 w |u|^2 + 3 pref (g . u)
        np.multiply(u[0], u[0], out=ss)
        for d in range(1, ndim):
            np.multiply(u[d], u[d], out=t)
            ss += t
        ss *= 1.5 * omega
        for d in range(ndim):
            if g[d] != 0.0:
                np.multiply(u[d], 3.0 * method._pref * g[d], out=t)
                ss += t
        # rho_keep <- rho keep, t <- w keep  (keep = fluid and interior)
        np.multiply(fluid[span], keep[loc], out=t)
        np.multiply(rho[span], t, out=rk)
        t *= omega
        # delta <- w_i rho keep ((4.5 w eu + A1) eu + A0 - s)  (Horner form)
        method.pair_polynomial(
            method.pair_eu(u, e[: q // 2]), 4.5 * omega,
            method._a1_b, method._a0_b, ss, dl,
        )
        dl *= method._w_b
        dl *= rk
        # delta -= w keep f  (eu is dead past the polynomial; reuse it)
        np.multiply(f[:, span], t, out=e)
        dl -= e
        f[:, span] += dl


def lb_stream(method, sub, region: Region) -> None:
    """Streaming in pull form: ``F_i(x) <- F_i(x - e_i)``.

    Each population's shift is one flat offset, so a slab's pull is one
    contiguous copy per population into slab scratch.  A pull reads one
    plane beyond its slab either way, so each slab is committed only
    after the next one has been pulled.
    """
    field = sub.fields["f"]
    shape = sub.padded_shape
    strides = node_strides(shape)
    q = method.lattice.q
    f = flat_nodes(field, method.ndim)
    offsets = (method.lattice.e @ strides).tolist()
    depth = slab_depth(shape, region, q, reach=1)
    n = depth * strides[0]
    pulled = (sub.scratch("lb_pull", (q, n)),
              sub.scratch("lb_pull_next", (q, n)))
    for k, slab, done in held_back(plane_slabs(shape, region, depth)):
        if slab is not None:
            span, out = slab.span, pulled[k % 2]
            for i, off in enumerate(offsets):
                out[i, slab.local] = f[i, span.start - off:span.stop - off]
        if done is not None:
            field[(slice(None),) + done.target] = done.of(pulled[(k - 1) % 2])


def lb_moments(method, sub, region: Region) -> None:
    """Fluid variables from populations (plus Guo half-force shift).

    Density is one sum over the population spans; each momentum is a
    signed sum of population spans (``e`` components are -1/0/+1).
    """
    shape = sub.padded_shape
    depth = slab_depth(shape, region)
    n = depth * math.prod(shape[1:])
    rho_buf = sub.scratch("lb_rho", (n,))
    vel_buf = sub.scratch("lb_vel", (n,))
    ndim = method.ndim
    f = flat_nodes(sub.fields["f"], ndim)
    fluid = flat_nodes(sub.aux["fluid_f"], ndim)
    g = method.params.gravity
    for slab in plane_slabs(shape, region, depth):
        span, loc = slab.span, slab.local
        pops = f[:, span]
        r, vel = rho_buf[loc], vel_buf[loc]
        np.sum(pops, axis=0, out=r)
        sub.fields["rho"][slab.target] = slab.of(rho_buf)
        for d, name in enumerate(method.vel_names):
            plus, minus = method._mom_idx[d]
            np.subtract(pops[plus[0]], pops[minus[0]], out=vel)
            for i in plus[1:]:
                vel += pops[i]
            for i in minus[1:]:
                vel -= pops[i]
            vel /= r
            if g[d] != 0.0:
                vel += 0.5 * g[d]
            # Walls are no-slip: solid nodes report zero velocity.
            vel *= fluid[span]
            sub.fields[name][slab.target] = slab.of(vel_buf)


def fd_velocity(method, sub) -> None:
    """Forward-Euler momentum update (eqs. 2-3) on the interior.

    All derivative kernels write into per-subregion slab scratch
    (allocation-free after the first step); the accumulation order
    matches the classic form ``c + dt (-adv - press + visc + g)``, with
    ``c_s^2 / rho`` formed once per slab for every component.  The
    new velocities go to the ``new_*`` arrays over each slab's span and
    are committed to the fields, region only, once every slab has read
    the old ones.  The caller (:meth:`FDMethod.compute_phase`)
    re-enforces no-slip afterwards.
    """
    p = method.params
    region = sub.interior
    shape = sub.padded_shape
    ndim = method.ndim
    steps = node_strides(shape)
    depth = slab_depth(shape, region)
    n = depth * steps[0]
    acc, t1, t2, t3 = (sub.scratch(name, (n,))
                       for name in ("fd_acc", "fd_t1", "fd_t2", "fd_cs2_rho"))
    rho = flat_nodes(sub.fields["rho"], ndim)
    vels = [flat_nodes(sub.fields[v], ndim) for v in method.vel_names]
    news = [flat_nodes(sub.aux["new_" + v], ndim) for v in method.vel_names]
    cs2 = p.cs * p.cs
    for slab in plane_slabs(shape, region, depth):
        span, loc = slab.span, slab.local
        at = (span,)
        a, b, c2, cr = acc[loc], t1[loc], t2[loc], t3[loc]
        mids = [v[span] for v in vels]
        np.divide(cs2, rho[span], out=cr)
        for d in range(ndim):
            c = vels[d]
            # advection: (V . grad) V_d
            central_diff(c, at, 0, p.dx, out=a, step=steps[0])
            a *= mids[0]
            for ax in range(1, ndim):
                central_diff(c, at, 0, p.dx, out=b, step=steps[ax])
                b *= mids[ax]
                a += b
            # pressure: (cs^2 / rho) d rho / d x_d
            central_diff(rho, at, 0, p.dx, out=b, step=steps[d])
            b *= cr
            a += b
            # viscosity: nu * laplacian(V_d)
            laplacian(c, at, p.dx, out=b, scratch=c2, steps=steps)
            b *= p.nu
            # new = c + dt * (visc - (adv + press) + g)
            b -= a
            if p.gravity[d] != 0.0:
                b += p.gravity[d]
            if p.dt != 1.0:
                b *= p.dt
            np.add(mids[d], b, out=news[d][span])
    for name in method.vel_names:
        sub.fields[name][region] = sub.aux["new_" + name][region]


def fd_density(method, sub) -> None:
    """Continuity update (eq. 1) with time-(t+dt) velocities.

    The caller has already no-slip-enforced one ghost ring, so the mass
    fluxes below read clean wall velocities.  Each slab forms the flux
    ``rho(t) V_d(t+dt)`` one plane beyond its span either way (all its
    centered-difference reads); because the flux reads ``rho``, a
    slab's update is committed only after the next slab's flux is
    formed.
    """
    p = method.params
    region = sub.interior
    shape = sub.padded_shape
    ndim = method.ndim
    steps = node_strides(shape)
    depth = slab_depth(shape, region, reach=1)
    plane = steps[0]
    term = sub.scratch("fd_term", (depth * plane,))
    div = (sub.scratch("fd_div", (depth * plane,)),
           sub.scratch("fd_div_next", (depth * plane,)))
    # flux index 0 is the node one plane before the slab's first plane
    flux = sub.scratch("fd_flux", ((depth + 2) * plane,))
    field = sub.fields["rho"]
    rho = flat_nodes(field, ndim)
    vels = [flat_nodes(sub.fields[v], ndim) for v in method.vel_names]
    for k, slab, done in held_back(plane_slabs(shape, region, depth)):
        if slab is not None:
            span, loc = slab.span, slab.local
            wide = slice(span.start - plane, span.stop + plane)
            at = (slice(loc.start + plane, loc.stop + plane),)
            out = div[k % 2][loc]
            for d in range(ndim):
                np.multiply(rho[wide], vels[d][wide],
                            out=flux[loc.start:loc.stop + 2 * plane])
                target = out if d == 0 else term[loc]
                central_diff(flux, at, 0, p.dx, out=target, step=steps[d])
                if d > 0:
                    out += target
            if p.dt != 1.0:
                out *= p.dt
        if done is not None:
            field[done.target] -= done.of(div[(k - 1) % 2])

