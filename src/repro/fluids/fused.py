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
stream, the velocity and density updates, the filter) commits each
slab only after the next one has been computed.  A product or quotient
by a factor of exactly 1.0 (``dt``, ``dx^2`` in lattice units) is
skipped: it changes no bit.

**Bind once, run every step.**  Each kernel is a ``_bind_*`` builder
and a two-line runner.  The builder walks the slabs once and returns
the sweep as ``(ufunc, args)`` pairs over prebuilt views — flat field
spans shifted by ``±stride``, scratch slices, commit targets — which
:meth:`SubregionState.plan <repro.core.subregion.SubregionState.plan>`
keeps in ``sub.aux``; a warmed step runs the same ufunc calls, in the
same order, with no slab, region or shape arithmetic.  A plan rebinds
when a field it holds is no longer ``sub.fields[name]`` (``is``), and a
restored subregion binds afresh.  Nothing here allocates after the
first step.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ._kernels import (
    central_diff_ops,
    copy_op,
    flat_nodes,
    held_back,
    holding,
    laplacian_ops,
    node_strides,
    plane_slabs,
    run_ops,
    slab_buffers,
    slab_depth,
)

__all__ = ["lb_init", "lb_relax", "lb_stream", "lb_moments",
           "fd_velocity", "fd_density"]

#: The kernel set's name: a method's ``backend`` is this module, and the
#: bench manifest records ``backend.name`` per workload.
name = "numpy"


def lb_init(method, sub) -> None:
    """Equilibrium populations over the whole padded array, written
    slab by slab straight into a fresh ``f`` (runs once per subregion,
    so its operations are bound and run, not kept)."""
    run_ops(_bind_lb_init(sub, method))


def _bind_lb_init(sub, method):
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
    return [
        (partial(method.equilibrium, out=slab.at(f), eu=eu[:, slab.local],
                 usq=usq[slab.local], tmp=tmp[slab.local]),
         (slab.at(rho), [slab.at(v) for v in vels]))
        for slab in plane_slabs(shape, everything, depth)
    ]


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
    (:meth:`LBMethod.pair_eu_ops`) and the polynomial shares it with the
    opposite rows (:meth:`LBMethod.pair_polynomial_ops`); the fluid-and-
    interior mask ``keep`` is folded into ``rho`` and ``w`` as node-sized
    products, so ``delta`` is ``±0`` at solid nodes and on the ghost
    columns of the span, and the increment is added over the whole
    contiguous span.  Adding ``±0`` changes no population that is not
    ``-0.0``: no byte outside the region changes, and every population
    inside gets the bits of the per-population Horner form.
    """
    for fn, args in sub.plan("lb_relax", _bind_lb_relax, method).ops:
        fn(*args)


def _bind_lb_relax(sub, method):
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
    # keep <- 1 on the region's columns of every slab plane, 0 on ghosts;
    # written here once, read by every run of the plan
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
    ops = []
    for slab in plane_slabs(shape, region, depth):
        loc = slab.local
        e, dl, ss, t, rk = (eu[:, loc], delta[:, loc], s[loc], tmp[loc],
                            rho_keep[loc])
        u = [slab.at(v) for v in vels]
        fs = slab.at(f)
        # s <- 1.5 w |u|^2 + 3 pref (g . u)
        ops.append((np.multiply, (u[0], u[0], ss)))
        for d in range(1, ndim):
            ops += [(np.multiply, (u[d], u[d], t)), (np.add, (ss, t, ss))]
        ops.append((np.multiply, (ss, 1.5 * omega, ss)))
        for d in range(ndim):
            if g[d] != 0.0:
                ops += [(np.multiply, (u[d], 3.0 * method._pref * g[d], t)),
                        (np.add, (ss, t, ss))]
        # rho_keep <- rho keep, t <- w keep  (keep = fluid and interior)
        ops += [
            (np.multiply, (slab.at(fluid), keep[loc], t)),
            (np.multiply, (slab.at(rho), t, rk)),
            (np.multiply, (t, omega, t)),
        ]
        # delta <- w_i rho keep ((4.5 w eu + A1) eu + A0 - s)  (Horner form)
        ops += method.pair_eu_ops(u, e[: q // 2])
        ops += method.pair_polynomial_ops(
            e[: q // 2], 4.5 * omega, method._a1_b, method._a0_b, ss, dl)
        ops += [
            (np.multiply, (dl, method._w_b, dl)),
            (np.multiply, (dl, rk, dl)),
            # delta -= w keep f  (eu is dead past the polynomial; reuse it)
            (np.multiply, (fs, t, e)),
            (np.subtract, (dl, e, dl)),
            (np.add, (fs, dl, fs)),
        ]
    held = holding(sub, ("f", "rho") + method.vel_names, aux=("fluid_f",))
    return ops, held


def lb_stream(method, sub, region) -> None:
    """Streaming in pull form: ``F_i(x) <- F_i(x - e_i)``.

    Each population's shift is one flat offset, so a slab's pull is one
    contiguous copy per population into slab scratch.  A pull reads one
    plane beyond its slab either way, so each slab is committed only
    after the next one has been pulled.
    """
    for fn, args in sub.plan("lb_stream", _bind_lb_stream, method,
                             region).ops:
        fn(*args)


def _bind_lb_stream(sub, method, region):
    field = sub.fields["f"]
    shape = sub.padded_shape
    strides = node_strides(shape)
    q = method.lattice.q
    f = flat_nodes(field, method.ndim)
    offsets = (method.lattice.e @ strides).tolist()
    depth = slab_depth(shape, region, q, reach=1)
    n = depth * strides[0]
    pulled = slab_buffers(sub, ("lb_pull", "lb_pull_next"), (q, n))
    ops = []
    for k, slab, done in held_back(plane_slabs(shape, region, depth)):
        if slab is not None:
            out = pulled(k)
            ops += [copy_op(out[i, slab.local], slab.at(f[i], -off))
                    for i, off in enumerate(offsets)]
        if done is not None:
            ops.append(copy_op(field[(slice(None),) + done.target],
                               done.of(pulled(k - 1))))
    return ops, holding(sub, ("f",))


def lb_moments(method, sub, region) -> None:
    """Fluid variables from populations (plus Guo half-force shift).

    Density is one sum over the population spans; each momentum is a
    signed sum of population spans (``e`` components are -1/0/+1).
    """
    for fn, args in sub.plan("lb_moments", _bind_lb_moments, method,
                             region).ops:
        fn(*args)


def _bind_lb_moments(sub, method, region):
    shape = sub.padded_shape
    depth = slab_depth(shape, region)
    n = depth * math.prod(shape[1:])
    rho_buf = sub.scratch("lb_rho", (n,))
    vel_buf = sub.scratch("lb_vel", (n,))
    ndim = method.ndim
    f = flat_nodes(sub.fields["f"], ndim)
    fluid = flat_nodes(sub.aux["fluid_f"], ndim)
    g = method.params.gravity
    ops = []
    for slab in plane_slabs(shape, region, depth):
        pops = slab.at(f)
        r, vel = rho_buf[slab.local], vel_buf[slab.local]
        ops += [
            (np.add.reduce, (pops, 0, None, r)),
            copy_op(sub.fields["rho"][slab.target], slab.of(rho_buf)),
        ]
        for d, name in enumerate(method.vel_names):
            plus, minus = method._mom_idx[d]
            ops.append((np.subtract, (pops[plus[0]], pops[minus[0]], vel)))
            ops += [(np.add, (vel, pops[i], vel)) for i in plus[1:]]
            ops += [(np.subtract, (vel, pops[i], vel)) for i in minus[1:]]
            ops.append((np.true_divide, (vel, r, vel)))
            if g[d] != 0.0:
                ops.append((np.add, (vel, 0.5 * g[d], vel)))
            # Walls are no-slip: solid nodes report zero velocity.
            ops += [
                (np.multiply, (vel, slab.at(fluid), vel)),
                copy_op(sub.fields[name][slab.target], slab.of(vel_buf)),
            ]
    held = holding(sub, ("f", "rho") + method.vel_names, aux=("fluid_f",))
    return ops, held


def fd_velocity(method, sub) -> None:
    """Forward-Euler momentum update (eqs. 2-3) on the interior.

    All derivative kernels write into per-subregion slab scratch
    (allocation-free after the first step); the accumulation order
    matches the classic form ``c + dt (-adv - press + visc + g)``, with
    ``c_s^2 / rho`` formed once per slab for every component.  A slab's
    new velocities go to double-buffered slab scratch (``fd_new``,
    ``fd_new_next``) and are committed, region only, once the next slab
    has read the old ones.  The caller (:meth:`FDMethod.compute_phase`)
    re-enforces no-slip afterwards.
    """
    for fn, args in sub.plan("fd_velocity", _bind_fd_velocity,
                             method).ops:
        fn(*args)


def _bind_fd_velocity(sub, method):
    p = method.params
    region = sub.interior
    shape = sub.padded_shape
    ndim = method.ndim
    steps = node_strides(shape)
    depth = slab_depth(shape, region, reach=1)
    n = depth * steps[0]
    acc, t1, t2, t3 = (sub.scratch(name, (n,))
                       for name in ("fd_acc", "fd_t1", "fd_t2", "fd_cs2_rho"))
    new = slab_buffers(sub, ("fd_new", "fd_new_next"), (ndim, n))
    rho = flat_nodes(sub.fields["rho"], ndim)
    vels = [flat_nodes(sub.fields[v], ndim) for v in method.vel_names]
    cs2 = p.cs * p.cs
    ops = []
    for k, slab, done in held_back(plane_slabs(shape, region, depth)):
        if slab is not None:
            at, loc = (slab.span,), slab.local
            a, b, c2, cr = acc[loc], t1[loc], t2[loc], t3[loc]
            mids = [slab.at(v) for v in vels]
            ops.append((np.true_divide, (cs2, slab.at(rho), cr)))
            for d in range(ndim):
                c = vels[d]
                # advection: (V . grad) V_d
                ops += central_diff_ops(c, at, 0, p.dx, a, steps[0])
                ops.append((np.multiply, (a, mids[0], a)))
                for ax in range(1, ndim):
                    ops += central_diff_ops(c, at, 0, p.dx, b, steps[ax])
                    ops += [(np.multiply, (b, mids[ax], b)),
                            (np.add, (a, b, a))]
                # pressure: (cs^2 / rho) d rho / d x_d
                ops += central_diff_ops(rho, at, 0, p.dx, b, steps[d])
                ops += [(np.multiply, (b, cr, b)), (np.add, (a, b, a))]
                # viscosity: nu * laplacian(V_d)
                ops += laplacian_ops(c, at, p.dx, b, c2, steps)
                # new = c + dt * (visc - (adv + press) + g)
                ops += [(np.multiply, (b, p.nu, b)),
                        (np.subtract, (b, a, b))]
                if p.gravity[d] != 0.0:
                    ops.append((np.add, (b, p.gravity[d], b)))
                if p.dt != 1.0:
                    ops.append((np.multiply, (b, p.dt, b)))
                ops.append((np.add, (mids[d], b, new(k)[d, loc])))
        if done is not None:
            ops += [
                copy_op(sub.fields[name][done.target],
                        done.of(new(k - 1)[d]))
                for d, name in enumerate(method.vel_names)
            ]
    return ops, holding(sub, ("rho",) + method.vel_names)


def fd_density(method, sub) -> None:
    """Continuity update (eq. 1) with time-(t+dt) velocities.

    The caller has already no-slip-enforced one ghost ring, so the mass
    fluxes below read clean wall velocities.  Each slab forms the flux
    ``rho(t) V_d(t+dt)`` one plane beyond its span either way (all its
    centered-difference reads); because the flux reads ``rho``, a
    slab's update is committed only after the next slab's flux is
    formed.
    """
    for fn, args in sub.plan("fd_density", _bind_fd_density, method).ops:
        fn(*args)


def _bind_fd_density(sub, method):
    p = method.params
    region = sub.interior
    shape = sub.padded_shape
    ndim = method.ndim
    steps = node_strides(shape)
    depth = slab_depth(shape, region, reach=1)
    plane = steps[0]
    term = sub.scratch("fd_term", (depth * plane,))
    div = slab_buffers(sub, ("fd_div", "fd_div_next"), (depth * plane,))
    # flux index 0 is the node one plane before the slab's first plane
    flux = sub.scratch("fd_flux", ((depth + 2) * plane,))
    field = sub.fields["rho"]
    rho = flat_nodes(field, ndim)
    vels = [flat_nodes(sub.fields[v], ndim) for v in method.vel_names]
    ops = []
    for k, slab, done in held_back(plane_slabs(shape, region, depth)):
        if slab is not None:
            span, loc = slab.span, slab.local
            wide = slice(span.start - plane, span.stop + plane)
            at = (slice(loc.start + plane, loc.stop + plane),)
            out = div(k)[loc]
            for d in range(ndim):
                ops.append((np.multiply, (
                    rho[wide], vels[d][wide],
                    flux[loc.start:loc.stop + 2 * plane])))
                target = out if d == 0 else term[loc]
                ops += central_diff_ops(flux, at, 0, p.dx, target, steps[d])
                if d > 0:
                    ops.append((np.add, (out, target, out)))
            if p.dt != 1.0:
                ops.append((np.multiply, (out, p.dt, out)))
        if done is not None:
            view = field[done.target]
            ops.append((np.subtract,
                        (view, done.of(div(k - 1)), view)))
    return ops, holding(sub, ("rho",) + method.vel_names)
