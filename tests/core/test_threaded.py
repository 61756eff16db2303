"""The threaded in-process runner: concurrency without divergence.

Bitwise parity with the serial runner across methods, dimensions and
decompositions is a runner parameter of
``tests/integration/test_parallel_equivalence.py``; this file covers the
pool, the team of one and the local-axes split.
"""

import numpy as np
import pytest

from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.fluids import FluidParams, LBMethod, channel_geometry
from tests.conftest import perturbed_fields, rest_fields


def _stepped(steps):
    """A 2x2 LB channel stepped ``steps`` times on the thread pool."""
    shape = (32, 24)
    solid = channel_geometry(shape)
    params = FluidParams.lattice(
        2, nu=0.08, gravity=(1e-5, 0.0), filter_eps=0.02
    )
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition(shape, (2, 2), periodic=(True, False), solid=solid),
        perturbed_fields(shape, seed=21), solid,
    )
    thr.step(steps)
    thr.close()
    return thr


def test_step_counts_advance_together():
    thr = _stepped(7)
    assert thr.step_count == 7
    assert all(s.step == 7 for s in thr.subs)


def test_repeated_step_calls():
    solid = channel_geometry((32, 24))
    params = FluidParams.lattice(2, nu=0.08, gravity=(1e-5, 0.0))
    fields = rest_fields((32, 24))
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition((32, 24), (2, 2), periodic=(True, False),
                      solid=solid),
        fields, solid,
    )
    seq = Simulation(
        LBMethod(params, 2),
        Decomposition((32, 24), (2, 2), periodic=(True, False),
                      solid=solid),
        fields, solid,
    )
    for _ in range(3):
        thr.step(5)
        seq.step(5)
    assert np.array_equal(thr.global_field("u"), seq.global_field("u"))


def test_single_subregion_fast_path():
    """One subregion is a team of one on the calling thread: no pool."""
    params = FluidParams.lattice(2, nu=0.08)
    fields = rest_fields((24, 16))
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition((24, 16), (1, 1), periodic=(True, True)),
        fields,
    )
    thr.step(5)
    assert thr.step_count == 5
    assert thr._pool == []


def test_kernel_error_propagates():
    """A worker-thread exception surfaces in step(), not a deadlock."""

    class ExplodingMethod(LBMethod):
        def finalize_step(self, sub):
            if sub.step == 2 and sub.block.rank == 1:
                raise RuntimeError("boom at step 2")
            super().finalize_step(sub)

    params = FluidParams.lattice(2, nu=0.08)
    thr = ThreadedSimulation(
        ExplodingMethod(params, 2),
        Decomposition((24, 16), (2, 1), periodic=(True, True)),
        rest_fields((24, 16)),
    )
    with pytest.raises(RuntimeError, match="boom"):
        thr.step(10)


def test_global_state_names():
    thr = _stepped(2)
    assert set(thr.global_state()) == {"rho", "u", "v", "f"}


class TestPersistentPool:
    """The pool survives across step() calls instead of respawning."""

    def _sim(self, blocks=(2, 1), shape=(24, 16), periodic=(True, True)):
        params = FluidParams.lattice(2, nu=0.08, gravity=(1e-5, 0.0))
        return ThreadedSimulation(
            LBMethod(params, 2),
            Decomposition(shape, blocks, periodic=periodic),
            rest_fields(shape),
        )

    def test_threads_are_reused_across_calls(self):
        thr = self._sim()
        thr.step(2)
        first = [t.ident for t in thr._pool]
        thr.step(2)
        assert [t.ident for t in thr._pool] == first
        thr.close()

    def test_close_is_idempotent_and_respawns(self):
        thr = self._sim()
        thr.step(2)
        thr.close()
        thr.close()
        assert thr._pool == []
        thr.step(3)  # a fresh pool spawns on demand
        assert thr.step_count == 5
        thr.close()

    def test_context_manager_closes(self):
        with self._sim() as thr:
            thr.step(2)
            assert thr._pool
        assert thr._pool == []

    def test_pool_recovers_after_worker_error(self):
        """One exploding step must not poison the pool for the next."""

        class Exploding(LBMethod):
            def finalize_step(self, sub):
                if sub.step == 1 and getattr(self, "armed", False):
                    raise RuntimeError("kaboom")
                super().finalize_step(sub)

        params = FluidParams.lattice(2, nu=0.08)
        method = Exploding(params, 2)
        method.armed = True
        thr = ThreadedSimulation(
            method,
            Decomposition((24, 16), (2, 1), periodic=(True, True)),
            rest_fields((24, 16)),
        )
        with pytest.raises(RuntimeError, match="kaboom"):
            thr.step(5)
        method.armed = False
        thr.step(3)  # the healed pool keeps working
        assert all(np.isfinite(thr.global_field("rho")).all()
                   for _ in [0])
        thr.close()

    def test_closed_threads_are_daemons(self):
        thr = self._sim()
        thr.step(1)
        assert all(t.daemon for t in thr._pool)
        thr.close()


class TestLocalAxes:
    """Axes without cross-block traffic skip the central exchange."""

    def _pair(self, blocks, periodic, steps=12):
        shape = (24, 20)
        params = FluidParams.lattice(
            2, nu=0.08, gravity=(1e-5, 0.0), filter_eps=0.02
        )
        fields = perturbed_fields(shape, seed=5)
        seq = Simulation(
            LBMethod(params, 2),
            Decomposition(shape, blocks, periodic=periodic),
            fields,
        )
        thr = ThreadedSimulation(
            LBMethod(params, 2),
            Decomposition(shape, blocks, periodic=periodic),
            fields,
        )
        seq.step(steps)
        thr.step(steps)
        thr.close()
        return seq, thr

    def test_single_block_leading_axis_is_local(self):
        """blocks (1, 2), walls on axis 0: its edge ops are pure
        replicate/hold, so the sweep prefix runs thread-locally."""
        seq, thr = self._pair((1, 2), (False, False))
        assert 0 in thr._local_axes
        for name in seq.method.field_names:
            assert np.array_equal(
                seq.global_field(name), thr.global_field(name)
            ), name

    def test_periodic_single_block_axis_stays_central(self):
        """A periodic wrap is a recv (self-roll) — never local."""
        seq, thr = self._pair((1, 2), (True, False))
        assert 0 not in thr._local_axes
        for name in seq.method.field_names:
            assert np.array_equal(
                seq.global_field(name), thr.global_field(name)
            ), name

    def test_all_axes_central_when_fully_split(self):
        seq, thr = self._pair((2, 2), (True, False))
        assert thr._local_axes == ()
        for name in seq.method.field_names:
            assert np.array_equal(
                seq.global_field(name), thr.global_field(name)
            ), name
