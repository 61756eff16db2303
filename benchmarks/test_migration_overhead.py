"""§5.1 migration economics.

The paper reports: one migration roughly every 45 minutes on a
20-of-25-workstation run, each lasting about 30 seconds — "the cost of
migration is insignificant because the migrations do not happen too
often".  And migrating must beat staying: a subprocess sharing a busy
host throttles the whole synchronized computation.

Simulated at the paper's scale: a 45-minute (simulated) 20-workstation
run in which one host picks up a full-time competing job.
"""

import numpy as np

from repro.cluster import ClusterSimulation, LoadTrace, paper_sim_cluster
from repro.harness import format_table

from conftest import run_once

SIDE = 150
BLOCKS = (5, 4)
BUSY_AT = 300.0  # the regular user shows up 5 minutes in


def _run(monitor_poll, steps=2500):
    traces = {"hp715-07": LoadTrace.busy_from(BUSY_AT, load=2.0)}
    sim = ClusterSimulation(
        "lb", 2, BLOCKS, SIDE, hosts=paper_sim_cluster(traces)
    )
    return sim.run(steps=steps, monitor_poll=monitor_poll)


def test_migration_overhead(benchmark, record_figure):
    def build():
        return {
            "clean": ClusterSimulation("lb", 2, BLOCKS, SIDE).run(2500),
            "stuck": _run(monitor_poll=0.0),
            "migrated": _run(monitor_poll=60.0),
        }

    res = run_once(benchmark, build)
    rows = [
        [name,
         f"{r.elapsed:.0f}",
         f"{r.time_per_step * 1e3:.1f}",
         f"{r.efficiency:.3f}",
         len(r.migrations)]
        for name, r in res.items()
    ]
    record_figure(
        "migration_overhead",
        format_table(
            ["scenario", "elapsed (s)", "ms/step", "efficiency",
             "migrations"],
            rows,
            title="§5.1 — migrating off a busy host vs staying "
                  "(20 workstations, one busy from t=300 s)",
        ),
    )

    clean, stuck, migrated = res["clean"], res["stuck"], res["migrated"]
    assert stuck.migrations == [] and len(migrated.migrations) == 1

    # staying on the busy host throttles everyone: the whole run slows
    # towards the busy host's halved speed
    assert stuck.elapsed > 1.3 * clean.elapsed

    # migrating recovers most of the loss; the 30 s pause is noise over
    # a 45-minute run ("the cost of migration is insignificant")
    assert migrated.elapsed < stuck.elapsed - 60.0
    overhead = migrated.elapsed - clean.elapsed
    assert overhead < 0.1 * clean.elapsed

    # the migration moved the rank off the busy host
    ev = migrated.migrations[0]
    assert ev.from_host == "hp715-07"
    assert ev.pause_duration == 30.0
