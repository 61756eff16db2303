"""Lid-driven cavity (Hou et al. 1995) with diagnostics-driven stopping.

The canonical closed-box benchmark for the lattice Boltzmann method: a
square cavity, no-slip walls on three sides, the top row driven at a
constant horizontal velocity.  The run consumes its own global
diagnostics stream — the same in-flight records a distributed run logs —
to detect kinetic-energy steady state and stop early instead of marching
a fixed step count.
"""

import numpy as np
import pytest

from repro.core import Decomposition, ThreadedSimulation
from repro.distrib import DEFAULT_VMAX
from repro.fluids import FluidParams, GlobalBox, LBMethod, VelocityInlet

pytestmark = pytest.mark.slow

#: diagnostics cadence and the relative KE slope that counts as steady
DIAG_EVERY = 100
KE_TOL = 5e-5


def _cavity(n=32, u_lid=0.05, nu=0.1, blocks=(2, 2)):
    shape = (n, n)
    solid = np.zeros(shape, dtype=bool)
    solid[0, :] = solid[-1, :] = True   # side walls
    solid[:, 0] = True                  # floor
    solid[:, -1] = True                 # ceiling behind the lid row
    lid = VelocityInlet(GlobalBox((1, n - 2), (n - 1, n - 1)),
                        (u_lid, 0.0))
    params = FluidParams.lattice(2, nu=nu, gravity=(0.0, 0.0),
                                 filter_eps=0.01)
    fields = {"rho": np.ones(shape), "u": np.zeros(shape),
              "v": np.zeros(shape)}
    d = Decomposition(shape, blocks, periodic=(False, False), solid=solid)
    return ThreadedSimulation(LBMethod(params, 2, inlets=[lid]), d,
                              fields, solid)


def _run_to_steady_state(sim, max_steps=6000):
    """Step until the diagnostics stream reports KE steady state.

    Returns the steady record (``None`` if the budget ran out) and the
    whole stream, one record per ``DIAG_EVERY`` steps.
    """
    prev_ke = None
    stream = []
    while sim.step_count < max_steps:
        sim.step(DIAG_EVERY)
        rec = sim.global_diagnostics()
        stream.append(rec)
        if prev_ke is not None and rec.kinetic_energy > 0:
            rel = abs(rec.kinetic_energy - prev_ke) / rec.kinetic_energy
            if rel < KE_TOL:
                return rec, stream
        prev_ke = rec.kinetic_energy
    return None, stream


def test_cavity_converges_early_via_diagnostics():
    n, u_lid = 32, 0.05
    sim = _cavity(n=n, u_lid=u_lid)
    steady, stream = _run_to_steady_state(sim, max_steps=6000)

    # the stream detected steady state well before the step budget
    assert steady is not None, "cavity never reached KE steady state"
    assert sim.step_count < 6000
    assert steady.step == sim.step_count
    # one record per DIAG_EVERY steps, none skipped
    assert [r.step for r in stream] == \
        list(range(DIAG_EVERY, sim.step_count + 1, DIAG_EVERY))

    # the run stayed physical throughout: finite, subsonic
    assert steady.n_nonfinite == 0
    assert 0 < steady.max_speed <= u_lid + 1e-12
    assert steady.max_speed < DEFAULT_VMAX
    assert steady.total_mass == pytest.approx((n - 2) ** 2, rel=0.05)

    # the classic single-vortex structure: the lid row moves at u_lid
    # and the return flow below it runs backwards
    u = sim.global_field("u")
    mid = n // 2
    assert u[mid, n - 2] == pytest.approx(u_lid, rel=1e-9)
    interior = u[1:-1, 1:-1]
    assert interior.min() < -0.1 * u_lid
    # net horizontal transport through the mid column ~ 0 (closed box)
    flux = u[mid, 1:-1].sum()
    assert abs(flux) < 0.1 * u_lid * n


def test_cavity_decomposition_invariant():
    """Steady-state KE must not depend on how the cavity is cut."""
    recs = {}
    for blocks in ((1, 1), (2, 2)):
        sim = _cavity(blocks=blocks)
        rec, _ = _run_to_steady_state(sim)
        assert rec is not None
        recs[blocks] = rec
    a, b = recs[(1, 1)], recs[(2, 2)]
    # both stopped at the same diagnostics sample with identical physics
    assert a.step == b.step
    assert a.kinetic_energy == b.kinetic_energy
    assert a.max_speed == b.max_speed
