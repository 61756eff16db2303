"""The fused kernels against the pre-fusion reference implementations.

The fused `(Q, ...)` LB kernels and buffered FD kernels reorder
floating-point work (Horner forms, hoisted constants, precomputed
coefficient vectors), so they are not bit-identical to the original
per-direction loops — but they must stay within round-off of them.
The classes below re-implement the original allocating loops verbatim;
a Poiseuille channel run must agree to <= 1e-12 relative tolerance.

The wall rules on precomputed wall-node index sets and the plane-slab
sweeps do *not* reorder any node's arithmetic, so they must be bitwise
identical to the dense full-region rules and to the region-form
kernels (both kept below as references), and a sweep in many slabs to
one in a single slab — signed zeros and ghost bytes included.

The fused kernels also must not allocate: after warm-up fills the
per-subregion scratch pool, a collision + moments pass reuses it
entirely, and a whole walled step stays below one field, which
`harness.count_allocations` verifies via tracemalloc.
"""

import numpy as np
import pytest

from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.distrib import ProblemSpec
from repro.fluids import (
    FDMethod,
    FluidParams,
    GlobalBox,
    LBMethod,
    PressureOutlet,
    VelocityInlet,
    channel_geometry,
    flue_pipe,
)
from repro.fluids import _kernels
from repro.fluids import fd as fd_module
from repro.core.subregion import Plan
from repro.fluids._kernels import (
    central_diff,
    dilate_star,
    fourth_diff_sum,
    laplacian,
    plane_slabs,
    region_shape,
    shift_region,
    slab_depth,
)
from repro.fluids import fused
from repro.fluids.coupling import build_converters
from repro.fluids.filters import FourthOrderFilter
from repro.harness import count_allocations

from ..conftest import SERIAL_ID, channel_sim, perturbed_fields, rest_fields


# ----------------------------------------------------------------------
# pre-fusion reference implementations (the seed's per-direction loops)
# ----------------------------------------------------------------------
def _ref_fourth_diff_sum(a, region):
    out = np.zeros_like(a[region])
    for axis in range(len(region)):
        out += (
            a[shift_region(region, axis, -2)]
            - 4.0 * a[shift_region(region, axis, -1)]
            + 6.0 * a[region]
            - 4.0 * a[shift_region(region, axis, +1)]
            + a[shift_region(region, axis, +2)]
        )
    return out


def _ref_enforce_noslip(sub, names, region):
    """The dense no-slip rule: every node of the region times fluid_f."""
    fluid = sub.aux["fluid_f"][region]
    for name in names:
        sub.fields[name][region] *= fluid


def _ref_enforce_wall_density(sub, region, rho_name="rho"):
    """The dense wall-density rule, masked over the whole region."""
    rho = sub.fields[rho_name]
    fluid = sub.aux["fluid_f"]
    num = np.zeros_like(rho[region])
    den = np.zeros_like(rho[region])
    for axis in range(sub.ndim):
        for by in (-1, +1):
            shifted = shift_region(region, axis, by)
            num += rho[shifted] * fluid[shifted]
            den += fluid[shifted]
    solid = sub.solid[region]
    sel = solid & (den > 0.0)
    target = rho[region]
    with np.errstate(invalid="ignore", divide="ignore"):
        repl = num / den
    target[sel] = repl[sel]


def _ref_bounce_back(self, sub, region):
    """Boolean-mask bounce-back through a permuted (Q, n_solid) copy."""
    f = sub.fields["f"]
    solid = sub.solid[region]
    if not solid.any():
        return
    view = f[(slice(None),) + region]
    arrived = view[:, solid]
    view[:, solid] = arrived[self.lattice.opposite]


def _ref_keep(sub, reach=FourthOrderFilter.reach):
    """The filter's 0/1 keep-mask (the kernels fold ``eps`` into theirs)."""
    if "ref_filter_keep" not in sub.aux:
        near_wall = dilate_star(sub.solid, reach)
        sub.aux["ref_filter_keep"] = (~near_wall).astype(np.float64)
    return sub.aux["ref_filter_keep"]


def _ref_new(sub, name):
    """A padded array the reference velocity update writes into (the
    kernels commit from slab scratch instead)."""
    return sub.aux.setdefault("ref_new_" + name, np.zeros(sub.padded_shape))


class ReferenceFilter(FourthOrderFilter):
    def apply(self, sub, names, region):
        if not self.enabled:
            return
        keep = _ref_keep(sub, self.reach)[region]
        for name in names:
            a = sub.fields[name]
            corr = _ref_fourth_diff_sum(a, region)
            corr *= keep
            corr *= self.eps
            a[region] -= corr


class ReferenceLBMethod(LBMethod):
    """The seed's per-population loops for equilibrium/collision/moments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.filter = ReferenceFilter(self.params.filter_eps)

    def equilibrium(self, rho, vels, out=None, **_ignored):
        lat = self.lattice
        usq = sum(c * c for c in vels)
        if out is None:
            out = np.empty((lat.q,) + rho.shape, dtype=np.float64)
        for i in range(lat.q):
            eu = sum(
                float(lat.e[i, d]) * vels[d] for d in range(self.ndim)
            )
            out[i] = lat.w[i] * rho * (
                1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq
            )
        return out

    def _force_term(self, rho, vels, i):
        lat = self.lattice
        g = self.params.gravity
        eu = sum(float(lat.e[i, d]) * vels[d] for d in range(self.ndim))
        acc = None
        for d in range(self.ndim):
            if g[d] == 0.0:
                continue
            term = (
                3.0 * (float(lat.e[i, d]) - vels[d])
                + 9.0 * eu * float(lat.e[i, d])
            ) * g[d]
            acc = term if acc is None else acc + term
        if acc is None:
            return np.zeros_like(rho)
        return (1.0 - 0.5 / self.tau) * lat.w[i] * rho * acc

    def _relax(self, sub):
        region = sub.interior
        f = sub.fields["f"]
        rho = sub.fields["rho"][region]
        vels = [sub.fields[n][region] for n in self.vel_names]
        feq = self.equilibrium(rho, vels)
        fluid = sub.aux["fluid_f"][region]
        omega = 1.0 / self.tau
        has_force = any(g != 0.0 for g in self.params.gravity)
        for i in range(self.lattice.q):
            fi = f[(i,) + region]
            delta = (feq[i] - fi) * omega
            if has_force:
                delta += self._force_term(rho, vels, i)
            fi += delta * fluid

    def _macro(self, sub, region):
        f = sub.fields["f"]
        lat = self.lattice
        view = f[(slice(None),) + region]
        rho = view.sum(axis=0)
        sub.fields["rho"][region] = rho
        g = self.params.gravity
        fluid = sub.aux["fluid_f"][region]
        for d, name in enumerate(self.vel_names):
            mom = np.zeros_like(rho)
            for i in range(lat.q):
                e = float(lat.e[i, d])
                if e:
                    mom += e * view[i]
            vel = mom / rho
            if g[d] != 0.0:
                vel += 0.5 * g[d]
            sub.fields[name][region] = vel * fluid


class ReferenceFDMethod(FDMethod):
    """The seed's allocating finite-difference updates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.filter = ReferenceFilter(self.params.filter_eps)

    def _update_velocity(self, sub):
        p = self.params
        region = sub.interior
        rho = sub.fields["rho"]
        vels = [sub.fields[n] for n in self.vel_names]
        vel_mid = [c[region] for c in vels]
        cs2 = p.cs * p.cs
        for d, name in enumerate(self.vel_names):
            c = vels[d]
            adv = vel_mid[0] * central_diff(c, region, 0, p.dx)
            for ax in range(1, self.ndim):
                adv += vel_mid[ax] * central_diff(c, region, ax, p.dx)
            press = (cs2 / rho[region]) * central_diff(rho, region, d, p.dx)
            visc = p.nu * laplacian(c, region, p.dx)
            new = _ref_new(sub, name)
            new[region] = c[region] + p.dt * (
                -adv - press + visc + p.gravity[d]
            )
        for name in self.vel_names:
            sub.fields[name][region] = _ref_new(sub, name)[region]
        _ref_enforce_noslip(sub, self.vel_names, region)

    def _update_density(self, sub):
        p = self.params
        region = sub.interior
        _ref_enforce_noslip(sub, self.vel_names, sub.grown_interior(1))
        rho = sub.fields["rho"]
        div = None
        for d, name in enumerate(self.vel_names):
            flux = rho * sub.fields[name]
            term = central_diff(flux, region, d, p.dx)
            div = term if div is None else div + term
        rho[region] = rho[region] - p.dt * div


# ----------------------------------------------------------------------
# region-form kernels: the fused kernels as they ran on strided region
# views before the plane-slab sweeps (bitwise references)
# ----------------------------------------------------------------------
def _region_lb_init(method, sub):
    rho = sub.fields["rho"]
    vels = [sub.fields[n] for n in method.vel_names]
    sub.fields["f"] = method.equilibrium(rho, vels)


def _region_lb_relax(method, sub):
    region = sub.interior
    f = sub.fields["f"]
    rho = sub.fields["rho"][region]
    vels = [sub.fields[n][region] for n in method.vel_names]
    ndim = method.ndim
    e_b, w_b = method.broadcast_columns(ndim)
    a1, a0 = (c.reshape(w_b.shape) for c in (method._a1_b, method._a0_b))
    g = method.params.gravity
    omega = method._omega
    qshape = (method.lattice.q,) + region_shape(region)
    eu, delta = np.empty(qshape), np.empty(qshape)
    s, tmp = np.empty(qshape[1:]), np.empty(qshape[1:])
    np.multiply(e_b[0], vels[0], out=eu)
    for d in range(1, ndim):
        np.multiply(e_b[d], vels[d], out=delta)
        eu += delta
    np.multiply(vels[0], vels[0], out=s)
    for d in range(1, ndim):
        np.multiply(vels[d], vels[d], out=tmp)
        s += tmp
    s *= 1.5 * omega
    for d in range(ndim):
        if g[d] != 0.0:
            np.multiply(vels[d], 3.0 * method._pref * g[d], out=tmp)
            s += tmp
    np.multiply(eu, 4.5 * omega, out=delta)
    delta += a1
    delta *= eu
    delta += a0
    delta -= s
    delta *= w_b
    delta *= rho
    fview = f[(slice(None),) + region]
    np.multiply(fview, omega, out=eu)
    delta -= eu
    delta *= sub.aux["fluid_f"][region]
    fview += delta


def _region_lb_stream(method, sub, region):
    f = sub.fields["f"]
    scratch = np.empty_like(f)
    for i in range(method.lattice.q):
        src = region
        for d in range(method.ndim):
            e = int(method.lattice.e[i, d])
            if e:
                src = shift_region(src, d, -e)
        scratch[(i,) + region] = f[(i,) + src]
    f[(slice(None),) + region] = scratch[(slice(None),) + region]


def _region_lb_moments(method, sub, region):
    view = sub.fields["f"][(slice(None),) + region]
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
        vel *= fluid


def _region_fd_velocity(method, sub):
    p = method.params
    region = sub.interior
    rho = sub.fields["rho"]
    vels = [sub.fields[n] for n in method.vel_names]
    vel_mid = [c[region] for c in vels]
    cs2 = p.cs * p.cs
    ishape = vel_mid[0].shape
    acc, t1, t2 = np.empty(ishape), np.empty(ishape), np.empty(ishape)
    for d, name in enumerate(method.vel_names):
        c = vels[d]
        central_diff(c, region, 0, p.dx, out=acc)
        acc *= vel_mid[0]
        for ax in range(1, method.ndim):
            central_diff(c, region, ax, p.dx, out=t1)
            t1 *= vel_mid[ax]
            acc += t1
        central_diff(rho, region, d, p.dx, out=t1)
        np.divide(cs2, rho[region], out=t2)
        t1 *= t2
        acc += t1
        laplacian(c, region, p.dx, out=t1, scratch=t2)
        t1 *= p.nu
        t1 -= acc
        if p.gravity[d] != 0.0:
            t1 += p.gravity[d]
        t1 *= p.dt
        np.add(c[region], t1, out=_ref_new(sub, name)[region])
    for name in method.vel_names:
        sub.fields[name][region] = _ref_new(sub, name)[region]


def _region_fd_density(method, sub):
    p = method.params
    region = sub.interior
    g1 = sub.grown_interior(1)
    rho = sub.fields["rho"]
    inner = tuple(slice(1, 1 + n) for n in sub.block.shape)
    flux = np.empty(region_shape(g1))
    div, term = np.empty(region_shape(region)), np.empty(region_shape(region))
    for d, name in enumerate(method.vel_names):
        np.multiply(rho[g1], sub.fields[name][g1], out=flux)
        target = div if d == 0 else term
        central_diff(flux, inner, d, p.dx, out=target)
        if d > 0:
            div += term
    div *= p.dt
    rho[region] -= div


def _region_filter(flt, sub, names, region):
    if not flt.enabled:
        return
    keep = _ref_keep(sub, flt.reach)[region]
    corr, tmp = np.empty(region_shape(region)), np.empty(region_shape(region))
    for name in names:
        a = sub.fields[name]
        fourth_diff_sum(a, region, out=corr, scratch=tmp)
        corr *= keep
        corr *= flt.eps
        a[region] -= corr


#: (owner, kernel name) -> the kernel on strided region views, one
#: region at a time
REGION_KERNELS = {
    (fused, "lb_init"): _region_lb_init,
    (fused, "lb_relax"): _region_lb_relax,
    (fused, "lb_stream"): _region_lb_stream,
    (fused, "lb_moments"): _region_lb_moments,
    (fused, "fd_velocity"): _region_fd_velocity,
    (fused, "fd_density"): _region_fd_density,
    (FourthOrderFilter, "apply"): _region_filter,
}


# ----------------------------------------------------------------------
# fused vs reference on a Poiseuille channel run
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fused_cls,ref_cls",
    [(LBMethod, ReferenceLBMethod), (FDMethod, ReferenceFDMethod)],
    ids=["lb", "fd"],
)
def test_fused_matches_reference_poiseuille(fused_cls, ref_cls):
    """50 channel steps agree with the pre-fusion loops to <= 1e-12."""
    kw = dict(shape=(32, 24), nu=0.05, g=1e-5, filter_eps=0.02)
    fused = channel_sim(fused_cls, **kw)
    ref = channel_sim(ref_cls, **kw)
    fused.step(50)
    ref.step(50)
    for name in ("rho", "u", "v"):
        np.testing.assert_allclose(
            fused.global_field(name),
            ref.global_field(name),
            rtol=1e-12,
            atol=1e-14,
            err_msg=f"field {name!r} drifted from the reference kernels",
        )


def test_fused_matches_reference_3d():
    """A short 3D LB run agrees with the reference loops too."""
    kw = dict(shape=(12, 10, 10), nu=0.05, g=1e-5, filter_eps=0.02)
    fused = channel_sim(LBMethod, **kw)
    ref = channel_sim(ReferenceLBMethod, **kw)
    fused.step(10)
    ref.step(10)
    for name in ("rho", "u", "v", "w"):
        np.testing.assert_allclose(
            fused.global_field(name),
            ref.global_field(name),
            rtol=1e-12,
            atol=1e-14,
        )


# ----------------------------------------------------------------------
# wall rules on index sets and the slabbed collision: bitwise
# ----------------------------------------------------------------------
by_runner = pytest.mark.parametrize("runner", [
    pytest.param(Simulation, id=SERIAL_ID),
    pytest.param(ThreadedSimulation, id="threaded"),
])
# The 2D cases name the kernels they run: every method's are NumPy's.
by_backend_2d = pytest.mark.parametrize("backend", [
    pytest.param("numpy", id="numpy"),
])


def _build(method_cls, shape, blocks, periodic, solid, fields, runner,
           inlets=(), outlets=(), backend="numpy"):
    ndim = len(shape)
    params = FluidParams.lattice(ndim, nu=0.08, gravity=(0.0,) * ndim,
                                 filter_eps=0.02)
    method = method_cls(params, ndim, inlets=inlets, outlets=outlets)
    assert method.backend.name == backend
    decomp = Decomposition(shape, blocks, periodic=periodic, solid=solid)
    return runner(method, decomp, fields, solid)


def _assert_same_bytes(sim_a, sim_b):
    """Every padded array of every subregion, ghosts and signs included."""
    assert len(sim_a.subs) == len(sim_b.subs)
    for sa, sb in zip(sim_a.subs, sim_b.subs):
        for name, arr in sa.fields.items():
            assert arr.tobytes() == sb.fields[name].tobytes(), (
                f"field {name!r} of block {sa.block.index} differs"
            )


def _against_dense_walls(monkeypatch, steps, **kw):
    """Run with the index-set wall rules, then with the dense ones."""
    fast = _build(**kw)
    fast.step(steps)
    with monkeypatch.context() as m:
        m.setattr(fd_module, "enforce_noslip", _ref_enforce_noslip)
        m.setattr(fd_module, "enforce_wall_density",
                  _ref_enforce_wall_density)
        m.setattr(LBMethod, "_bounce_back", _ref_bounce_back)
        dense = _build(**kw)
        dense.step(steps)
    _assert_same_bytes(fast, dense)
    return fast


def _duct_openings(shape):
    """Inlet on the x = 0 face, outlet on the far one, inside the walls."""
    lo_in = (0,) + (1,) * (len(shape) - 1)
    hi_in = (1,) + tuple(n - 1 for n in shape[1:])
    lo_out = (shape[0] - 1,) + lo_in[1:]
    hi_out = (shape[0],) + hi_in[1:]
    inlet = VelocityInlet(GlobalBox(lo_in, hi_in),
                          (0.02,) + (0.0,) * (len(shape) - 1))
    outlet = PressureOutlet(GlobalBox(lo_out, hi_out), rho=1.0)
    return [inlet], [outlet]


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@pytest.mark.parametrize("blocks", [(1, 1), (3, 2)],
                         ids=lambda b: "x".join(map(str, b)))
@by_runner
@by_backend_2d
def test_wall_sets_match_dense_flue_pipe(monkeypatch, method_cls, blocks,
                                         runner, backend):
    """2D walls, a ramped jet inlet and a pressure outlet."""
    shape = (96, 64)
    setup = flue_pipe(shape, jet_speed=0.08, ramp_steps=10)
    sim = _against_dense_walls(
        monkeypatch, 20, method_cls=method_cls, shape=shape, blocks=blocks,
        periodic=(False, False), solid=setup.solid,
        fields=rest_fields(shape), runner=runner,
        inlets=[setup.inlet], outlets=[setup.outlet], backend=backend,
    )
    assert np.abs(sim.global_field("u")).max() > 0.0


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 1, 2)],
                         ids=lambda b: "x".join(map(str, b)))
@by_runner
def test_wall_sets_match_dense_duct_3d(monkeypatch, method_cls, blocks,
                                       runner):
    """3D duct walls with an inlet and an outlet on the open faces."""
    shape = (16, 12, 10)
    inlets, outlets = _duct_openings(shape)
    _against_dense_walls(
        monkeypatch, 10, method_cls=method_cls, shape=shape, blocks=blocks,
        periodic=(False, False, False), solid=channel_geometry(shape),
        fields=perturbed_fields(shape, seed=5), runner=runner,
        inlets=inlets, outlets=outlets,
    )


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@by_runner
@by_backend_2d
def test_wall_sets_match_dense_inactive_block(monkeypatch, method_cls,
                                              runner, backend):
    """Fig. 2's layout: one all-solid block is never exchanged with.

    Plus a lone solid node and a two-node sliver, whose wall densities
    average four and three fluid neighbours: only there does the
    accumulation order show in the bits.
    """
    shape = (48, 32)
    solid = np.zeros(shape, dtype=bool)
    solid[:24, :16] = True
    solid[:, 0] = solid[:, -1] = True
    solid[0, :] = solid[-1, :] = True
    solid[30, 20] = True
    solid[36:38, 24] = True
    sim = _against_dense_walls(
        monkeypatch, 20, method_cls=method_cls, shape=shape, blocks=(2, 2),
        periodic=(False, False), solid=solid,
        fields=perturbed_fields(shape, seed=9), runner=runner,
        backend=backend,
    )
    assert sim.decomp.n_active == 3


def test_wall_rules_keep_signed_zeros():
    """No-slip multiplies by 0.0: -x at a wall node becomes -0.0, as the
    dense rule leaves it, and a NaN stays NaN."""
    sims = []
    for noslip in (fd_module.enforce_noslip, _ref_enforce_noslip):
        sim = channel_sim(FDMethod, shape=(16, 12), filter_eps=0.02)
        sub = sim.subs[0]
        u = sub.fields["u"]
        u[...] = -1e-3
        u[sub.pad + 2, sub.pad] = np.nan
        noslip(sub, ("u", "v"), sub.grown_interior(3))
        sims.append(sim)
    a, b = (s.subs[0].fields["u"] for s in sims)
    assert np.signbit(a[sims[0].subs[0].solid]).any()
    assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# plane-slab sweeps: slab size and region form change no bit
# ----------------------------------------------------------------------
#: kernel -> (method class, Q-wide slab buffers, how to run it, its region)
SWEPT = {
    "relax": (LBMethod, True, lambda m, sub: m._relax(sub),
              lambda sub: sub.interior),
    "stream": (LBMethod, True, lambda m, sub: m._shift(
        sub, sub.grown_interior(2)), lambda sub: sub.grown_interior(2)),
    "moments": (LBMethod, False, lambda m, sub: m._macro(
        sub, sub.grown_interior(2)), lambda sub: sub.grown_interior(2)),
    "equilibrium": (LBMethod, True, lambda m, sub: fused.lb_init(m, sub),
                    lambda sub: tuple(slice(0, n)
                                      for n in sub.padded_shape)),
    "filter": (FDMethod, False, lambda m, sub: m.filter.apply(
        sub, m.field_names, sub.grown_interior(1)),
        lambda sub: sub.grown_interior(1)),
    "fd_velocity": (FDMethod, False, lambda m, sub: fused.fd_velocity(m, sub),
                    lambda sub: sub.interior),
    "fd_density": (FDMethod, False, lambda m, sub: fused.fd_density(m, sub),
                   lambda sub: sub.interior),
}


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("kernel", sorted(SWEPT))
def test_slabs_match_one_slab(monkeypatch, kernel, ndim):
    """Each swept kernel run in slabs of 4 planes (the last one
    partial) writes exactly the bytes of a one-slab sweep."""
    method_cls, wide, run, region_of = SWEPT[kernel]
    shape = (11, 10, 9)[:ndim]
    kw = dict(shape=shape, nu=0.05, g=1e-5, filter_eps=0.02,
              fields=perturbed_fields(shape, seed=4))
    sims = []
    for depth in (4, None):
        sim = channel_sim(method_cls, **kw)
        sim.step(2)
        sub = sim.subs[0]
        region = region_of(sub)
        planes = region[0].stop - region[0].start
        width = sim.method.lattice.q if wide else 1
        plane = 8 * width * int(np.prod(sub.padded_shape[1:]))
        # the step bound every kernel at the default slab size: unbind
        for key in [k for k, v in sub.aux.items() if isinstance(v, Plan)]:
            del sub.aux[key]
        with monkeypatch.context() as m:
            m.setattr(_kernels, "SLAB_BYTES", (depth or planes) * plane)
            got = slab_depth(sub.padded_shape, region, width)
            n_slabs = len(list(plane_slabs(sub.padded_shape, region, got)))
            if depth:
                assert got == depth and planes % depth != 0
                assert n_slabs >= 3
            else:
                assert n_slabs == 1
            before = {k: a.copy() for k, a in sub.fields.items()}
            run(sim.method, sub)
        assert any(a.tobytes() != before[k].tobytes()
                   for k, a in sub.fields.items())
        sims.append(sim)
    _assert_same_bytes(*sims)


#: the kernels each method's step must reach through REGION_KERNELS
STEP_KERNELS = {
    "lb": {"lb_relax", "lb_stream", "lb_moments", "apply"},
    "fd": {"fd_velocity", "fd_density", "apply"},
}


def _tallied(name, kernel, ran):
    def run(*args):
        ran.add(name)
        kernel(*args)
    return run


def _against_region_kernels(build, steps):
    """Every padded array after ``steps`` equals the region-form run."""
    swept = build()
    swept.step(steps)
    ran = set()
    with pytest.MonkeyPatch.context() as m:
        for (owner, name), kernel in REGION_KERNELS.items():
            m.setattr(owner, name, _tallied(name, kernel, ran))
        ref = build()
        ref.step(steps)
    assert set().union(*(STEP_KERNELS[method.method_name]
                         for method in ref.methods)) <= ran
    _assert_same_bytes(swept, ref)
    return swept


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 1, 2)],
                         ids=lambda b: "x".join(map(str, b)))
@by_runner
def test_sweeps_match_region_kernels_duct_3d(method_cls, blocks, runner):
    """3D duct walls with an inlet and an outlet on the open faces."""
    shape = (16, 12, 10)
    inlets, outlets = _duct_openings(shape)
    _against_region_kernels(lambda: _build(
        method_cls=method_cls, shape=shape, blocks=blocks,
        periodic=(False, False, False), solid=channel_geometry(shape),
        fields=perturbed_fields(shape, seed=5), runner=runner,
        inlets=inlets, outlets=outlets,
    ), 8)


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@by_runner
def test_sweeps_match_region_kernels_inactive_block(method_cls, runner):
    """Fig. 2's layout: ghosts facing the all-solid block are held."""
    sim = _against_region_kernels(
        lambda: _inactive_block_layout(method_cls, runner), 12)
    assert sim.decomp.n_active == 3


def _inactive_block_layout(method_cls=LBMethod, runner=Simulation):
    """Fig. 2's layout on 2x2 blocks: one block is all solid."""
    shape = (48, 32)
    solid = np.zeros(shape, dtype=bool)
    solid[:24, :16] = True
    solid[:, 0] = solid[:, -1] = True
    solid[0, :] = solid[-1, :] = True
    return _build(method_cls, shape, (2, 2), (False, False), solid,
                  perturbed_fields(shape, seed=9), runner)


#: LB below, FD above: the seam runs along axis 0, so the LB block's
#: seam ghost strip lies inside the plane span its kernels sweep.
HYBRID = ProblemSpec(
    method={"default": "fd",
            "regions": [{"box": [[0, 0], [32, 12]], "method": "lb"}]},
    grid_shape=(32, 24), blocks=(1, 2), periodic=(True, False),
    params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
    geometry={"kind": "channel"},
)


def _hybrid(runner):
    solid, _, _ = HYBRID.build_geometry()
    decomp = HYBRID.build_decomposition()
    methods = HYBRID.build_methods()
    return runner(list(methods), decomp,
                  perturbed_fields(HYBRID.grid_shape, seed=3), solid,
                  converters=build_converters(decomp, methods))


@by_runner
def test_sweeps_match_region_kernels_hybrid(runner):
    """An LB/FD seam: converter-written ghost strips meet the sweeps."""
    _against_region_kernels(lambda: _hybrid(runner), 10)


def _duct_3d():
    shape = (16, 12, 10)
    inlets, outlets = _duct_openings(shape)
    return _build(LBMethod, shape, (2, 1, 2), (False, False, False),
                  channel_geometry(shape), perturbed_fields(shape, seed=5),
                  Simulation, inlets=inlets, outlets=outlets)


def _assert_relax_keeps_ghosts(sim, lb_blocks):
    """Relax every LB block: no byte of ``f`` outside its interior
    changes, and the interior does."""
    checked = 0
    for sub, method in zip(sim.subs, sim.methods):
        if method.method_name != "lb":
            continue
        before = sub.fields["f"].copy()
        method._relax(sub)
        after = sub.fields["f"]
        inside = np.zeros(sub.padded_shape, dtype=bool)
        inside[sub.interior] = True
        assert after[:, ~inside].tobytes() == before[:, ~inside].tobytes()
        assert after[:, inside].tobytes() != before[:, inside].tobytes()
        checked += 1
    assert checked == lb_blocks


def test_relax_keeps_seam_ghosts():
    """The LB collision adds its increment over whole padded planes but
    leaves every byte outside the interior — the fluid seam strip the
    converter just wrote, inside the swept span, included — as it was."""
    sim = _hybrid(Simulation)
    sim.step(3)
    sim.exchanger.exchange_seam()
    _assert_relax_keeps_ghosts(sim, 1)


@pytest.mark.parametrize("build", [_duct_3d, _inactive_block_layout],
                         ids=["duct_3d", "inactive_block"])
def test_relax_keeps_ghosts(build):
    """The same on the walls and cut ghosts of a 2x1x2 3D duct with
    openings, and on the held ghosts facing fig. 2's inactive block."""
    sim = build()
    sim.step(3)
    _assert_relax_keeps_ghosts(sim, len(sim.subs))


# ----------------------------------------------------------------------
# allocation-freedom of the fused hot path
# ----------------------------------------------------------------------
def _periodic_lb_sim(shape=(64, 64)):
    """A solid-free fully periodic LB domain (pure relax/stream/macro)."""
    ndim = len(shape)
    params = FluidParams.lattice(
        ndim, nu=0.05, gravity=(1e-5,) + (0.0,) * (ndim - 1),
        filter_eps=0.02,
    )
    decomp = Decomposition(shape, (1,) * ndim, periodic=(True,) * ndim)
    return Simulation(
        LBMethod(params, ndim), decomp, perturbed_fields(shape)
    )


def _assert_relax_macro_allocation_free(shape):
    sim = _periodic_lb_sim(shape)
    sim.step(2)  # fills the scratch pool
    method = sim.method
    sub = sim.subs[0]
    region = sub.grown_interior(2)
    # The default 16 KiB threshold is below every node-sized slab
    # buffer of the collision, so re-allocating any one of them shows.
    assert min(sub.aux[name].nbytes for name in
               ("lb_usq", "lb_tmp", "lb_keep", "lb_rho_keep")) >= 16384

    def relax_macro():
        method._relax(sub)
        method._macro(sub, region)

    report = count_allocations(relax_macro, warmup=2, repeat=3)
    assert not report.allocates_arrays(), (
        f"relax+macro transiently allocated {report.peak_bytes} bytes"
    )


def test_lb_relax_macro_allocation_free():
    """Collision + moments reuse the scratch pool: no new arrays (64^2:
    52-plane slabs; one interior field is 32 KiB)."""
    _assert_relax_macro_allocation_free((64, 64))


def test_lb_relax_macro_allocation_free_3d():
    """The same in 3D, one padded 50x50 plane per collision slab."""
    _assert_relax_macro_allocation_free((12, 44, 44))


def test_lb_full_step_allocates_less_than_one_field():
    """A whole warmed-up step stays far below one temporary grid array."""
    sim = _periodic_lb_sim()
    sim.step(3)
    report = count_allocations(lambda: sim.step(1), warmup=2, repeat=3)
    field_bytes = 64 * 64 * 8
    assert report.peak_bytes < field_bytes, (
        f"step transiently allocated {report.peak_bytes} bytes "
        f"(one field is {field_bytes})"
    )


def test_fd_walled_step_allocates_less_than_one_field():
    """A warmed FD channel step, wall rules included, stays below one
    temporary grid array."""
    sim = channel_sim(FDMethod, shape=(64, 64), filter_eps=0.02,
                      fields=perturbed_fields((64, 64), seed=2))
    sim.step(3)
    report = count_allocations(lambda: sim.step(1), warmup=2, repeat=3)
    field_bytes = 64 * 64 * 8
    assert report.peak_bytes < field_bytes, (
        f"step transiently allocated {report.peak_bytes} bytes "
        f"(one field is {field_bytes})"
    )


def test_lb_walled_step_allocates_less_than_one_field():
    """A warmed LB channel step, bounce-back included, stays below one
    temporary grid array."""
    sim = channel_sim(LBMethod, shape=(64, 64), filter_eps=0.02,
                      fields=perturbed_fields((64, 64), seed=2))
    sim.step(3)
    report = count_allocations(lambda: sim.step(1), warmup=2, repeat=3)
    field_bytes = 64 * 64 * 8
    assert report.peak_bytes < field_bytes, (
        f"step transiently allocated {report.peak_bytes} bytes "
        f"(one field is {field_bytes})"
    )


def test_lb_walled_3d_step_allocates_less_than_one_field():
    """A warmed 3D LB duct step — bounce-back on every wall, the edge
    replication of ``f`` on the four walled faces and its periodic
    wrap along the duct — stays below one temporary grid array (a
    ghost strip of ``f`` is several)."""
    shape = (24, 20, 16)
    sim = _build(LBMethod, shape, (1, 1, 1), (True, False, False),
                 channel_geometry(shape), perturbed_fields(shape, seed=2),
                 Simulation)
    sim.step(3)
    report = count_allocations(lambda: sim.step(1), warmup=2, repeat=3)
    field_bytes = int(np.prod(shape)) * 8
    assert report.peak_bytes < field_bytes, (
        f"step transiently allocated {report.peak_bytes} bytes "
        f"(one field is {field_bytes})"
    )
