"""App. A un-synchronization in the *real* distributed runtime.

A slowed worker (emulating a busy host) lets distant processes run
ahead, bounded by the dependency-graph diameter; the FCFS receive
buffering absorbs the early frames.  The heartbeats expose each
worker's step live, so the spread is directly observable — and the
final result must still equal the serial run bit for bit.
"""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    Decomposition,
    Simulation,
    max_unsync_steps,
    star_stencil,
)
from repro.distrib import (
    DistributedRun,
    ProblemSpec,
    RunSettings,
    initial_fields,
)
from repro.distrib.heartbeat import read_heartbeats
from repro.distrib.submit import spawn_worker
from repro.distrib.worker import WorkerConfig

pytestmark = pytest.mark.slow


def _read_hb(workdir: Path) -> dict[int, int]:
    # Through the checksummed codec: a torn read of a record being
    # rewritten must not fake a run-ahead spread.
    return {
        rank: step for rank, (step, _, _) in read_heartbeats(workdir).items()
    }


def test_slow_worker_lets_neighbors_run_ahead(tmp_path):
    spec = ProblemSpec(
        method="lb",
        grid_shape=(48, 12),
        blocks=(4, 1),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )
    fields = initial_fields(spec, "rest")
    solid, _, _ = spec.build_geometry()
    serial = Simulation(
        spec.build_method(),
        Decomposition(spec.grid_shape, (1, 1), periodic=spec.periodic,
                      solid=solid),
        fields,
        solid,
    )
    steps = 60
    serial.step(steps)

    # slow-worker run: spawn the workers directly, rank 0 slowed by the
    # per-rank step_delays knob (ranks past the list's end get none)
    workdir = tmp_path / "run2"
    run2 = DistributedRun(
        spec, fields, workdir, RunSettings(steps=steps, run_timeout=240),
    )
    procs = {}
    for rank in range(run2.decomp.n_active):
        cfg = WorkerConfig(
            workdir=str(workdir),
            rank=rank,
            host=f"host{rank}",
            generation=0,
            steps_total=steps,
            step_delays=[0.03],
        )
        procs[rank] = spawn_worker(cfg)

    spreads = []
    deadline = time.time() + 180
    while any(p.poll() is None for p in procs.values()):
        hb = _read_hb(workdir)
        if len(hb) == 4:
            spreads.append(max(hb.values()) - min(hb.values()))
        if time.time() > deadline:  # pragma: no cover
            for p in procs.values():
                p.kill()
            pytest.fail("slow-worker run timed out")
        time.sleep(0.01)
    for p in procs.values():
        assert p.wait() == 0

    bound = max_unsync_steps((4, 1), star_stencil(2))
    assert spreads, "no heartbeat samples collected"
    max_spread = max(spreads)
    # the fast workers genuinely ran ahead ...
    assert max_spread >= 1
    # ... but never past the dependency bound
    assert max_spread <= bound

    # and the answer is still exact
    from repro.core import assemble_global
    from repro.distrib import dump_path, load_dump

    subs = [
        load_dump(dump_path(workdir / "dumps", r, tag="final"))
        for r in range(4)
    ]
    for name in serial.method.field_names:
        got = assemble_global(run2.decomp, subs, name)
        assert np.array_equal(got, serial.global_field(name)), name
