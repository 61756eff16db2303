"""A distributed run its settings cannot drive is refused before any
worker is configured or spawned.

Each case would otherwise leave live workers behind with no monitor to
drive or stop them: the refusal must come from ``DistributedRun.start``
ahead of the submit program, not from the monitor after it.
"""

import subprocess

import pytest

from repro.balance import RecutError
from repro.distrib import (
    DistributedRun,
    ProblemSpec,
    RunSettings,
    initial_fields,
)

HYBRID = {
    "default": "lb",
    "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}],
}


def _spec(method="lb", blocks=(2, 1), geometry=None, grid_shape=(32, 24)):
    return ProblemSpec(
        method=method,
        grid_shape=grid_shape,
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1},
        geometry=geometry or {"kind": "channel"},
    )


REFUSED = {
    "hybrid_rebalance": (
        _spec(method=HYBRID), {"policy": "rebalance"}, RecutError, "hybrid"),
    "non_chain_rebalance": (
        _spec(blocks=(2, 2)), {"policy": "rebalance"}, RecutError, "chain"),
    "solid_block_rebalance": (
        _spec(blocks=(4, 1), grid_shape=(48, 48),
              geometry={"kind": "cavity", "wall_nodes": 12}),
        {"policy": "rebalance"}, RecutError, "active"),
    "unknown_policy": (
        _spec(), {"policy": "reshuffle"}, ValueError, "unknown policy"),
    "unknown_transport": (
        _spec(), {"transport": "tpc"}, ValueError, "unknown transport"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_run_spawns_nothing(case, tmp_path, monkeypatch):
    spec, knobs, error, match = REFUSED[case]
    spawned = []

    def no_spawn(args, **kw):
        spawned.append(args)
        raise AssertionError(f"worker spawned: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_spawn)
    workdir = tmp_path / "run"
    run = DistributedRun(
        spec, initial_fields(spec, "rest"), workdir,
        RunSettings(steps=5, **knobs),
    )
    with pytest.raises(error, match=match):
        run.start()
    assert spawned == []
    assert not list(workdir.glob("cfg_rank*.json"))
    assert run.monitor is None
