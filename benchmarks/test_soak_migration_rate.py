"""§5.1 soak: "typically one migration every 45 minutes".

A multi-hour production run on 20 of 25 workstations, with users
starting full-time jobs as a Poisson process across the cluster.  The
paper observes roughly one migration per 45 minutes under its users'
activity; here the user activity is a tunable stochastic model, so the
assertion is the *mechanism*, quantitatively: the monitoring program
answers essentially every busy-period onset on an occupied host with
exactly one migration, the computation survives hours of churn, and
the total migration downtime stays insignificant (30 s each).
"""

import numpy as np

from repro.cluster import (
    ClusterSimulation,
    expected_busy_events,
    paper_sim_cluster,
    poisson_user_traces,
)
from repro.harness import format_table

from conftest import run_once

HOURS = 3.0
#: tuned so ~20 occupied hosts see about one onset per 45 minutes total
RATE_PER_HOST_HOUR = (60.0 / 45.0) / 20.0


def _soak(seed):
    names = [h.name for h in paper_sim_cluster()]
    traces = poisson_user_traces(
        names,
        duration=HOURS * 3600.0,
        busy_rate_per_hour=RATE_PER_HOST_HOUR,
        mean_busy_minutes=30.0,
        seed=seed,
    )
    hosts = paper_sim_cluster(traces)
    sim = ClusterSimulation("lb", 2, (5, 4), 150, hosts=hosts)
    # ~0.64 s/step at 150^2: 3 simulated hours ~ 17k steps
    steps = int(HOURS * 3600.0 / 0.65)
    res = sim.run(steps=steps, monitor_poll=60.0)
    initial_hosts = names[:20]
    return res, expected_busy_events(traces, initial_hosts)


def test_soak_migration_rate(benchmark, record_figure):
    def build():
        return [_soak(seed) for seed in (0, 1, 2)]

    runs = run_once(benchmark, build)
    rows = []
    for i, (res, onsets) in enumerate(runs):
        per_45min = len(res.migrations) / (HOURS * 60.0 / 45.0)
        rows.append(
            [i, onsets, len(res.migrations), f"{per_45min:.2f}",
             f"{res.efficiency:.3f}",
             f"{30.0 * len(res.migrations) / res.elapsed * 100:.1f}%"]
        )
    record_figure(
        "soak_migration_rate",
        format_table(
            ["seed", "busy onsets (initial hosts)", "migrations",
             "migrations per 45 min", "efficiency",
             "migration downtime"],
            rows,
            title=f"§5.1 — {HOURS:.0f} simulated hours on 20 of 25 "
                  "workstations with Poisson user activity",
        ),
    )

    total_migrations = sum(len(r.migrations) for r, _ in runs)
    total_onsets = sum(o for _, o in runs)
    # the monitor answers busy events with migrations, one-ish for one
    # (events can also hit spare hosts after earlier migrations)
    assert total_migrations >= 0.5 * total_onsets
    assert total_migrations <= total_onsets + 3 * len(runs)
    # the paper's ballpark: around one per 45 minutes under this rate
    per_45 = total_migrations / (len(runs) * HOURS * 60.0 / 45.0)
    assert 0.3 < per_45 < 3.0
    for res, _ in runs:
        # churn never wedges the computation, and the 30 s pauses stay
        # insignificant (§5.1)
        assert res.efficiency > 0.45
        downtime = 30.0 * len(res.migrations)
        assert downtime < 0.05 * res.elapsed
