"""Every method a spec builds runs the NumPy kernels.

``bench/run.py`` records ``m.backend.name`` for every method of a
workload's spec in its manifest (``kernel_backend``); this pins that
contract on the one construction path every runtime uses.
"""

import pytest

from repro.distrib import ProblemSpec


@pytest.mark.parametrize("method", [
    "fd",
    "lb",
    {"default": "lb", "regions": [{"box": [[16, 0], [32, 24]],
                                   "method": "fd"}]},
], ids=["fd", "lb", "hybrid"])
def test_every_built_method_runs_numpy_kernels(method):
    spec = ProblemSpec(
        method=method, grid_shape=(32, 24), blocks=(2, 1),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0)},
        geometry={"kind": "channel"},
    )
    methods = spec.build_methods()
    assert len(methods) == 2
    assert {m.backend.name for m in methods} == {"numpy"}
