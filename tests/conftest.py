"""Shared fixtures and problem builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Decomposition, Simulation
from repro.fluids import FDMethod, FluidParams, LBMethod, channel_geometry

#: Id of the ``Simulation`` case of a test parametrised over runners:
#: hidden where pytest supports it (>= 8.4), so the serial cases keep
#: the ids they had before the runner became a parameter.
SERIAL_ID = getattr(pytest, "HIDDEN_PARAM", "serial")


def rest_fields(shape: tuple[int, ...], rho0: float = 1.0) -> dict:
    """Uniform fluid at rest."""
    ndim = len(shape)
    fields = {"rho": np.full(shape, rho0)}
    for name in ("u", "v", "w")[:ndim]:
        fields[name] = np.zeros(shape)
    return fields


def perturbed_fields(
    shape: tuple[int, ...], seed: int = 0, amplitude: float = 1e-3
) -> dict:
    """Reproducible random density/velocity perturbation around rest."""
    rng = np.random.default_rng(seed)
    fields = rest_fields(shape)
    fields["rho"] += amplitude * (rng.random(shape) - 0.5)
    for name in ("u", "v", "w")[: len(shape)]:
        fields[name] += 0.1 * amplitude * (rng.random(shape) - 0.5)
    return fields


def channel_sim(
    method_cls,
    shape=(32, 24),
    blocks=None,
    nu=0.1,
    g=1e-5,
    filter_eps=0.0,
    fields=None,
) -> Simulation:
    """A body-force-driven periodic channel (the §7 validation flow)."""
    ndim = len(shape)
    if blocks is None:
        blocks = (1,) * ndim
    gravity = (g,) + (0.0,) * (ndim - 1)
    params = FluidParams.lattice(ndim, nu=nu, gravity=gravity,
                                 filter_eps=filter_eps)
    solid = channel_geometry(shape)
    periodic = (True,) + (False,) * (ndim - 1)
    decomp = Decomposition(shape, blocks, periodic=periodic, solid=solid)
    if fields is None:
        fields = rest_fields(shape)
    return Simulation(method_cls(params, ndim), decomp, fields, solid)


@pytest.fixture
def lattice_params_2d() -> FluidParams:
    return FluidParams.lattice(2, nu=0.1)


@pytest.fixture
def lattice_params_3d() -> FluidParams:
    return FluidParams.lattice(3, nu=0.1)
