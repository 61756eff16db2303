"""Hybrid FD-LB coupled runs (the v2 region-aware ProblemSpec).

The acceptance bar of the hybrid redesign: a channel split into an FD
subregion and an LB subregion converges to the same steady Poiseuille
profile as either method alone (within the single-method tolerance),
conserves mass, and survives a checkpoint/resume bit-exactly on both
in-process runners.  Serial vs threaded bitwise equality is
``tests/core/test_threaded.py::test_graph_matches_serial_bitwise``.
"""

import numpy as np
import pytest

import repro
from repro.core import Simulation, ThreadedSimulation
from repro.distrib import ProblemSpec
from repro.distrib.initprog import initial_fields
from repro.fluids import poiseuille_profile, total_mass
from tests.conftest import SERIAL_ID


def _spec(method, grid=(32, 24), blocks=(2, 1), nu=0.1, g=1e-5,
          filter_eps=0.0):
    ndim = len(grid)
    return ProblemSpec(
        method=method,
        grid_shape=grid,
        blocks=blocks,
        periodic=(True,) + (False,) * (ndim - 1),
        params={
            "nu": nu,
            "gravity": (g,) + (0.0,) * (ndim - 1),
            "filter_eps": filter_eps,
        },
        geometry={"kind": "channel"},
    )


#: Seam across the flow direction: upstream half LB, downstream half FD.
HYBRID_X = {
    "default": "lb",
    "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}],
}

#: Seam across the channel: bottom wall side LB, top wall side FD.
HYBRID_Y = {
    "default": "lb",
    "regions": [{"box": [[0, 16], [16, 32]], "method": "fd"}],
}


def _build_sim(spec, runner=Simulation) -> Simulation:
    """A hybrid ``runner`` (serial by default) straight from the spec."""
    from repro.fluids.coupling import build_converters

    decomp = spec.build_decomposition()
    methods = spec.build_methods()
    solid, _, _ = spec.build_geometry()
    return runner(
        list(methods),
        decomp,
        initial_fields(spec, "rest"),
        solid,
        converters=build_converters(decomp, methods),
    )


class TestBackendEquivalence:
    def test_hybrid_returns_common_fields_only(self):
        """The LB populations are method-private: the reassembled
        global state is the macroscopic rho, V every method evolves."""
        r = repro.run(_spec(HYBRID_X), "serial", steps=5)
        assert sorted(r.fields) == ["rho", "u", "v"]
        assert all(np.isfinite(a).all() for a in r.fields.values())

    def test_uniform_spec_unaffected_by_redesign(self):
        """A v1 string spec runs through the same entry point and step
        loop, and reassembles every field of its one method."""
        r = repro.run(_spec("lb"), "serial", steps=10)
        assert sorted(r.fields) == ["f", "rho", "u", "v"]


class TestConservation:
    def test_mass_drift_stays_at_truncation_level(self):
        """The ghost-conversion seam is consistent but not discretely
        conservative: each side reconstructs the other's state instead
        of exchanging a matched flux.  The residual is truncation-sized
        (~1e-9 relative per step here, vs exact-to-rounding for either
        method alone) — pin it so a sign error in the converters, which
        shows up orders of magnitude above this, cannot slip through."""
        sim = _build_sim(_spec(HYBRID_X))
        m0 = total_mass(sim.global_field("rho"))
        sim.step(300)
        assert total_mass(sim.global_field("rho")) == pytest.approx(
            m0, rel=1e-6
        )


class TestCheckpoint:
    @pytest.mark.parametrize("runner", [
        pytest.param(Simulation, id=SERIAL_ID),
        pytest.param(ThreadedSimulation, id="threaded"),
    ])
    def test_save_resume_is_bit_exact(self, tmp_path, runner):
        """Checkpoint mid-run, keep stepping; a fresh hybrid sim
        resumed from the dump lands on identical bits."""
        spec = _spec(HYBRID_X)
        sim = _build_sim(spec, runner)
        sim.step(20)
        sim.save(tmp_path)
        sim.step(15)

        other = _build_sim(spec, runner)
        other.resume(tmp_path)
        assert other.step_count == 20
        other.step(15)
        for name in ("rho", "u", "v"):
            assert np.array_equal(sim.global_field(name),
                                  other.global_field(name)), name


@pytest.mark.slow
class TestPoiseuille:
    """§7 validation flow with the method seam mid-channel.

    The seam sits parallel to the flow, so the converted strip carries
    the full shear of the parabola — the hardest orientation for the
    non-equilibrium reconstruction.  At ny=32 the measured seam defect
    is ~3.6e-3 of the centerline velocity, inside the single-method
    5e-3 tolerance (and it shrinks as 1/ny^2).
    """

    def _profile_error(self, spec, ny, g, nu, steps=12000):
        sim = _build_sim(spec)
        sim.step(steps)
        u = sim.global_field("u")[4]
        # Bottom wall is LB (halfway bounce-back, wall at y=0 with
        # y_j = j - 0.5); top wall is FD (no-slip at the wall node,
        # y = ny - 1.5).
        y = np.arange(ny, dtype=float) - 0.5
        exact = poiseuille_profile(y, ny - 1.5, g, nu)
        fl = slice(1, ny - 1)
        return np.abs(u[fl] - exact[fl]).max() / exact.max()

    def test_seam_parallel_to_flow_hits_single_method_tolerance(self):
        nu, g = 0.1, 1e-5
        spec = _spec(HYBRID_Y, grid=(16, 32), blocks=(1, 2), nu=nu, g=g)
        assert self._profile_error(spec, 32, g, nu) < 5e-3
