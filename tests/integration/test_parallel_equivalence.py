"""THE core correctness property of the whole system (paper §4.2):

because computation is separated from communication by the ghost
padding, a decomposed run must reproduce the serial program *bit for
bit* — for both numerical methods, in 2D and 3D, with and without the
filter, with walls, openings and inactive subregions, and on both
in-process runners: the decomposed run is stepped by ``runner``, the
serial reference always by :class:`Simulation`.
"""

import numpy as np
import pytest

from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.fluids import (
    FDMethod,
    FluidParams,
    LBMethod,
    channel_geometry,
    flue_pipe,
)
from repro.fluids.backends._numba_kernels import HAVE_NUMBA
from tests.conftest import SERIAL_ID, perturbed_fields, rest_fields

by_runner = pytest.mark.parametrize("runner", [
    pytest.param(Simulation, id=SERIAL_ID),
    pytest.param(ThreadedSimulation, id="threaded"),
])


def _run(method_cls, shape, blocks, periodic, solid, fields, steps,
         filter_eps=0.02, g=None, inlets=(), outlets=(),
         runner=Simulation, backend=None):
    ndim = len(shape)
    gravity = g if g is not None else (0.0,) * ndim
    params = FluidParams.lattice(
        ndim, nu=0.08, gravity=gravity, filter_eps=filter_eps
    )
    method = method_cls(params, ndim, inlets=inlets, outlets=outlets)
    d = Decomposition(shape, blocks, periodic=periodic, solid=solid)
    sim = runner(method, d, fields, solid, backend=backend)
    sim.step(steps)
    if isinstance(sim, ThreadedSimulation):
        sim.close()
    return sim


def _assert_bitwise(sim_a, sim_b, names):
    for name in names:
        a, b = sim_a.global_field(name), sim_b.global_field(name)
        assert np.array_equal(a, b), f"field {name!r} diverged"


CASES_2D = [
    pytest.param((2, 2), id="2x2"),
    pytest.param((4, 1), id="4x1"),
    pytest.param((1, 3), id="1x3"),
    pytest.param((3, 2), id="3x2"),
]


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@pytest.mark.parametrize("blocks", CASES_2D)
@pytest.mark.parametrize("runner, backend", [
    pytest.param(Simulation, None, id=SERIAL_ID),
    pytest.param(ThreadedSimulation, None, id="threaded"),
    # compiled kernels release the GIL outright: the one case where the
    # threads really race (the reference runs the same backend serially)
    pytest.param(ThreadedSimulation, "numba", id="threaded-numba",
                 marks=pytest.mark.skipif(not HAVE_NUMBA,
                                          reason="needs numba")),
])
class TestChannel2D:
    """Periodic channel with walls, body force and filter."""

    def test_bitwise(self, method_cls, blocks, runner, backend):
        shape = (36, 28)
        solid = channel_geometry(shape)
        fields = perturbed_fields(shape, seed=11)
        periodic = (True, False)
        kw = dict(g=(1e-5, 0.0), backend=backend)
        serial = _run(method_cls, shape, (1, 1), periodic, solid, fields,
                      steps=30, **kw)
        par = _run(method_cls, shape, blocks, periodic, solid, fields,
                   steps=30, runner=runner, **kw)
        _assert_bitwise(serial, par, serial.method.field_names)


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@pytest.mark.parametrize("filter_eps", [0.0, 0.02], ids=["nofilt", "filt"])
@by_runner
def test_fully_periodic_2d(method_cls, filter_eps, runner):
    shape = (30, 24)
    fields = perturbed_fields(shape, seed=3)
    periodic = (True, True)
    serial = _run(method_cls, shape, (1, 1), periodic, None, fields,
                  steps=25, filter_eps=filter_eps)
    par = _run(method_cls, shape, (2, 3), periodic, None, fields,
               steps=25, filter_eps=filter_eps, runner=runner)
    _assert_bitwise(serial, par, serial.method.field_names)


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@pytest.mark.parametrize(
    "blocks", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 1, 3)],
    ids=lambda b: "x".join(map(str, b)),
)
@by_runner
def test_duct_3d(method_cls, blocks, runner):
    shape = (18, 14, 12)
    solid = channel_geometry(shape)
    fields = perturbed_fields(shape, seed=7)
    periodic = (True, False, False)
    kw = dict(g=(1e-5, 0.0, 0.0))
    serial = _run(method_cls, shape, (1, 1, 1), periodic, solid, fields,
                  steps=12, **kw)
    par = _run(method_cls, shape, blocks, periodic, solid, fields,
               steps=12, runner=runner, **kw)
    _assert_bitwise(serial, par, serial.method.field_names)


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@by_runner
def test_flue_pipe_with_openings(method_cls, runner):
    """The full problem: walls, a ramped jet inlet, a pressure outlet,
    and the filter — decomposed (3, 2) vs serial."""
    shape = (96, 64)
    setup = flue_pipe(shape, jet_speed=0.08, ramp_steps=20)
    fields = rest_fields(shape)
    kw = dict(inlets=[setup.inlet], outlets=[setup.outlet])
    serial = _run(method_cls, shape, (1, 1), (False, False), setup.solid,
                  fields, steps=40, **kw)
    par = _run(method_cls, shape, (3, 2), (False, False), setup.solid,
               fields, steps=40, runner=runner, **kw)
    _assert_bitwise(serial, par, serial.method.field_names)
    # and the jet actually does something
    assert np.abs(serial.global_field("u")).max() > 0.01


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@by_runner
def test_inactive_subregions_fig2(method_cls, runner):
    """Decomposition with entirely solid (inactive) subregions still
    matches the serial run on every active node (fig. 2's layout)."""
    shape = (48, 32)
    solid = np.zeros(shape, dtype=bool)
    solid[:24, :16] = True  # one quadrant is all wall
    solid[:, 0] = solid[:, -1] = True
    solid[0, :] = solid[-1, :] = True
    fields = perturbed_fields(shape, seed=9)
    d_par = Decomposition(shape, (2, 2), solid=solid)
    assert d_par.n_active == 3
    serial = _run(method_cls, shape, (1, 1), (False, False), solid, fields,
                  steps=25)
    par = _run(method_cls, shape, (2, 2), (False, False), solid, fields,
               steps=25, runner=runner)
    active = np.zeros(shape, dtype=bool)
    for blk in d_par.active_blocks():
        active[blk.slices] = True
    # Compare where values are physically meaningful: fluid nodes, plus
    # solid nodes adjacent to fluid (whose density the wall rule pins).
    # Deep-in-the-wall nodes hold unread don't-care values that the
    # serial program computes and the parallel program freezes.
    fluid = active & ~solid
    near_wall = solid & (
        np.roll(~solid, 1, 0) | np.roll(~solid, -1, 0)
        | np.roll(~solid, 1, 1) | np.roll(~solid, -1, 1)
    ) & active
    for name in serial.method.field_names:
        a = serial.global_field(name)
        b = par.global_field(name)
        assert np.array_equal(a[..., fluid], b[..., fluid]), name
        assert np.array_equal(a[..., near_wall], b[..., near_wall]), name


@pytest.mark.parametrize("method_cls", [FDMethod, LBMethod],
                         ids=["fd", "lb"])
@by_runner
def test_decompositions_agree_with_each_other(method_cls, runner):
    """Any two decompositions produce identical results — parallelism
    is invisible to the physics."""
    shape = (32, 32)
    fields = perturbed_fields(shape, seed=13)
    a = _run(method_cls, shape, (2, 2), (True, True), None, fields, 20)
    b = _run(method_cls, shape, (4, 2), (True, True), None, fields, 20,
             runner=runner)
    _assert_bitwise(a, b, a.method.field_names)
