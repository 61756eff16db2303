"""Distributed hybrid FD-LB runs: the seam over real sockets.

The method seam adds a pre-step ghost exchange whose two directions
carry *different* payloads (populations one way, macroscopic fields the
other).  These tests pin the property that matters: the wire protocol,
the per-rank phase scheduling, and the crash/checkpoint machinery are
all invisible to the numerics — a hybrid distributed run lands on the
serial program's bits, even through a worker kill and restart.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.chaos.runner import serial_reference
from repro.distrib import (
    DistributedRun,
    ProblemSpec,
    RunSettings,
    initial_fields,
)

pytestmark = pytest.mark.slow

HYBRID = {
    "default": "lb",
    "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}],
}


def _spec(blocks=(2, 1)):
    return ProblemSpec(
        method=HYBRID,
        grid_shape=(32, 24),
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.0},
        geometry={"kind": "channel"},
    )


def test_four_rank_hybrid_seam_inside_each_half(tmp_path):
    """blocks=(4,1): ranks 0-1 are LB, ranks 2-3 FD — the seam edge
    (1|2) coexists with same-method edges and the periodic 3|0 wrap."""
    spec = _spec(blocks=(4, 1))
    assert spec.methods_by_rank() == ("lb", "lb", "fd", "fd")
    fields = initial_fields(spec, "rest")
    ref = serial_reference(spec, steps=20)
    out = repro.run(
        spec, "distributed", RunSettings(steps=20),
        fields=fields, workdir=tmp_path / "run",
    ).fields
    for name in ("rho", "u", "v"):
        assert np.array_equal(out[name], ref[name]), name


def test_hybrid_crash_restarts_from_checkpoint(tmp_path):
    """Kill a worker mid-run on a 4-rank hybrid; the monitor's restart
    from the staggered checkpoints must reproduce the serial bits —
    i.e. the seam state is fully captured by the dumps."""
    spec = _spec(blocks=(4, 1))
    fields = initial_fields(spec, "rest")
    ref = serial_reference(spec, steps=40)
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(steps=40, save_every=10, run_timeout=240),
    )
    mon = run.start()

    def kill_one():
        from repro.distrib import SaveTurns

        deadline = time.time() + 60
        while SaveTurns.latest_complete_step(tmp_path / "run") is None:
            if time.time() > deadline:  # pragma: no cover
                return
            time.sleep(0.05)
        # kill an LB-side rank adjacent to the seam
        mon.procs[1].kill()

    threading.Thread(target=kill_one).start()
    run.wait()
    out = run.collect()
    assert mon.restarts >= 1
    for name in ("rho", "u", "v"):
        assert np.array_equal(out[name], ref[name]), name
