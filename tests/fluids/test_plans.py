"""Bound kernel plans: a warmed step is ufunc calls on prebuilt views.

Every kernel, wall rule, in-process ghost fill and seam conversion binds
its operands once per subregion (``SubregionState.plan``); a warmed step
only runs the bound operations.  Two things follow and are pinned here:
the Python-level work of one step no longer grows with the number of
slabs, rows or fields it touches, and a plan never reads an array that
is no longer the subregion's field.
"""

from __future__ import annotations

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.distrib import ProblemSpec
from repro.distrib.initprog import initial_fields

_PARAMS = {"nu": 0.05, "filter_eps": 0.02}


def _channel(method, shape, blocks=(1, 1)) -> ProblemSpec:
    ndim = len(shape)
    return ProblemSpec(
        method=method, grid_shape=shape, blocks=blocks,
        periodic=(True,) + (False,) * (ndim - 1),
        params={**_PARAMS, "gravity": (1e-5,) + (0.0,) * (ndim - 1)},
        geometry={"kind": "channel"},
    )


#: LB below, FD above on 128x128, two blocks: the hybrid2d_serial spec
HYBRID = _channel(
    {"default": "fd",
     "regions": [{"method": "lb", "box": [[0, 0], [128, 64]]}]},
    (128, 128), (1, 2),
)

#: Python "call" events of one warmed step, at most.  Before the kernels
#: were bound these specs read 469 (FD 16x16), 305 (LB 16x16) and 851
#: (hybrid) on Python 3.11; bound, they read 66, 41 and 98.  The margin
#: covers Python 3.10-3.12 (3.12 inlines comprehensions, which only
#: lowers the count).
CALL_BUDGET = {"fd": 80, "lb": 55, "hybrid": 120}

SPECS = {
    "fd": _channel("fd", (16, 16)),
    "lb": _channel("lb", (16, 16)),
    "hybrid": HYBRID,
}


def _calls_in_one_step(sim) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        sim.step(1)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("case", sorted(SPECS))
def test_warmed_step_call_budget(case):
    """One warmed step makes a fixed, small number of Python calls: the
    kernels run bound operations, not slab and region arithmetic."""
    spec = SPECS[case]
    sim = spec.build_simulation(initial_fields(spec, "random", seed=1))
    sim.step(3)
    calls = _calls_in_one_step(sim)
    assert calls <= CALL_BUDGET[case], (
        f"{case}: a warmed step made {calls} Python calls "
        f"(budget {CALL_BUDGET[case]})"
    )


def _padded_bytes(sim):
    return [
        (name, sub.fields[name].tobytes())
        for sub in sim.subs for name in sorted(sub.fields)
    ]


@pytest.mark.parametrize("threaded", [False, True],
                         ids=["serial", "threaded"])
@pytest.mark.parametrize("spec", [
    pytest.param(_channel("fd", (24, 16), (2, 1)), id="fd"),
    pytest.param(_channel("lb", (24, 16), (2, 1)), id="lb"),
    pytest.param(_channel(
        {"default": "fd",
         "regions": [{"method": "lb", "box": [[0, 0], [24, 8]]}]},
        (24, 16), (1, 2)), id="hybrid"),
])
def test_swapped_fields_rebind(spec, threaded):
    """Swapping any field of any subregion for a copy between steps
    gives the bits of an unswapped run: each plan that held the old
    array rebinds instead of reading or writing it."""
    fields = initial_fields(spec, "random", seed=3)
    plain = spec.build_simulation(fields, threaded=threaded)
    swapped = spec.build_simulation(fields, threaded=threaded)
    names = sorted({name for sub in swapped.subs for name in sub.fields})
    for name in names:
        plain.step(2)
        swapped.step(2)
        for sub in swapped.subs:
            if name in sub.fields:
                old = sub.fields[name]
                sub.fields[name] = old.copy()
                old[...] = np.nan   # a stale read or write shows
    plain.step(2)
    swapped.step(2)
    assert _padded_bytes(swapped) == _padded_bytes(plain)


@pytest.mark.parametrize("threaded", [False, True],
                         ids=["serial", "threaded"])
def test_discarded_run_frees_without_the_cycle_collector(threaded):
    """A plan lives in ``sub.aux`` and must not reference it back: a
    run dropped after stepping frees its arrays at once, not at the next
    full garbage collection (which let peak memory grow by several runs'
    worth of fields)."""
    spec = HYBRID
    gc.collect()
    gc.disable()
    try:
        sim = spec.build_simulation(initial_fields(spec, "random", seed=2),
                                    threaded=threaded)
        sim.step(3)
        refs = [weakref.ref(arr) for sub in sim.subs
                for arr in sub.fields.values()]
        del sim
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
