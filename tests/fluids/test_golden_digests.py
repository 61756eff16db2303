"""Golden digests: the bytes a few short runs leave, pinned as SHA-256.

The kernels' floating-point operations are part of what this repository
promises: a rewrite that only drops passes, shares a product between
two rows or skips a multiply by exactly ``1.0`` must leave every field
bit-for-bit as it was.  Each case below marches a small problem from
``initial_fields(spec, "random", seed=...)`` (numpy's generator plus
arithmetic, no transcendental ufunc, so the inputs are the same bytes
on every platform) and hashes every padded array of every subregion,
ghosts, populations and signed zeros included.  The digests were
recorded before the collision and FD update rewrites that keep them.

If a deliberate numerical change moves a digest, say why in the commit
and re-record it from the case's printed value.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import Decomposition, Simulation
from repro.distrib import ProblemSpec
from repro.distrib.initprog import initial_fields
from repro.fluids import GlobalBox, LBMethod, PressureOutlet, VelocityInlet

_PARAMS = {"nu": 0.05, "filter_eps": 0.02}


def _channel(method, shape, blocks=None, **params) -> ProblemSpec:
    ndim = len(shape)
    params = {**_PARAMS, **params}
    params.setdefault("gravity", (1e-5,) + (0.0,) * (ndim - 1))
    return ProblemSpec(
        method=method, grid_shape=shape, blocks=blocks or (1,) * ndim,
        periodic=(True,) + (False,) * (ndim - 1), params=params,
        geometry={"kind": "channel"},
    )


def _from_spec(spec, seed):
    return spec.build_simulation(initial_fields(spec, "random", seed=seed))


def _duct_with_openings(seed):
    """A closed 3D LB duct: an inlet on the x = 0 face, a pressure
    outlet on the far one, walls elsewhere."""
    shape = (12, 10, 8)
    spec = ProblemSpec(
        method="lb", grid_shape=shape, blocks=(1, 1, 1),
        periodic=(False, False, False),
        params={**_PARAMS, "gravity": (0.0, 0.0, 0.0)},
        geometry={"kind": "channel"},
    )
    solid, _, _ = spec.build_geometry()
    inner_lo, inner_hi = (1, 1), tuple(n - 1 for n in shape[1:])
    inlet = VelocityInlet(GlobalBox((0,) + inner_lo, (1,) + inner_hi),
                          (0.02, 0.0, 0.0))
    outlet = PressureOutlet(
        GlobalBox((shape[0] - 1,) + inner_lo, (shape[0],) + inner_hi),
        rho=1.0)
    method = LBMethod(spec.build_params(), 3, inlets=[inlet],
                      outlets=[outlet])
    decomp = Decomposition(shape, spec.blocks, periodic=spec.periodic,
                           solid=solid)
    return Simulation(method, decomp,
                      initial_fields(spec, "random", seed=seed), solid)


#: case -> (builder, steps)
CASES = {
    "fd2d": (lambda: _from_spec(_channel("fd", (24, 16)), 1), 20),
    "lb2d": (lambda: _from_spec(_channel("lb", (24, 16)), 2), 20),
    "fd3d": (lambda: _from_spec(_channel("fd", (12, 10, 8)), 3), 8),
    "lb3d": (lambda: _from_spec(
        _channel("lb", (12, 10, 8), gravity=(1e-5, 0.0, -3e-6)), 4), 8),
    "lb2d_cut_2x1": (lambda: _from_spec(
        _channel("lb", (24, 16), blocks=(2, 1)), 5), 20),
    "hybrid_lb_fd": (lambda: _from_spec(_channel(
        {"default": "fd",
         "regions": [{"box": [[0, 0], [32, 12]], "method": "lb"}]},
        (32, 24), blocks=(1, 2)), 6), 12),
    "lb3d_duct_openings": (lambda: _duct_with_openings(7), 8),
    # dx, dt != 1: the stencil divisions and the dt products all run
    "fd2d_dx_dt": (lambda: _from_spec(_channel(
        "fd", (24, 16), dx=0.5, dt=0.25, gravity=(2e-5, 0.0)), 8), 20),
}

DIGESTS = {
    "fd2d":
        "88683fdbed4b69d5308485cb1f3c37e2696857f153cdb21ffcd62ce0f0391f7e",
    "lb2d":
        "37d7748eb8075db7706ac19e369ef92eb6690d5602d7a382e9e4e05e15a8a532",
    "fd3d":
        "dc65602af7adda6b631eee0c9562bc0d2557acdfe82e8041e27ac70be509d398",
    "lb3d":
        "f782c573bf16cc8f13f681dbf44ee05371613e9f69d259e0f6fcd8efafa4ccb1",
    "lb2d_cut_2x1":
        "47296846582839e8d5d04c8febe1da803b2b7c4f0fdf8477fc6c607d90b57767",
    "hybrid_lb_fd":
        "612cd2b5b7c6b16abd645057cfb41d8492fdb9011120ea9a452ac3b4b57d7765",
    "lb3d_duct_openings":
        "e9f3735c34cf2894b0f9d4bacc096a9ec319942491786a77cbd15852e0419541",
    "fd2d_dx_dt":
        "d675cfa38ec64e4585028a11c438014294739f2e85dde00bdabf1838dee080ba",
}


def padded_digest(sim) -> str:
    """SHA-256 over every padded field of every subregion, in order."""
    h = hashlib.sha256()
    for sub in sim.subs:
        for name in sorted(sub.fields):
            h.update(name.encode())
            h.update(np.ascontiguousarray(sub.fields[name]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    build, steps = CASES[case]
    sim = build()
    sim.step(steps)
    got = padded_digest(sim)
    assert got == DIGESTS[case], f"{case}: digest {got}"
