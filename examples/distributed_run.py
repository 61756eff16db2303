#!/usr/bin/env python
"""The full distributed system in action, with a live migration (§4-§5).

Runs a channel-flow problem across real worker *processes* communicating
over real TCP sockets (the paper's UNIX + TCP/IP substrate), on a
virtual registry of 25 non-dedicated workstations.  As the run begins,
one workstation's emulated five-minute load average jumps above 1.5 — the
monitoring program detects it, interrupts every worker with SIGUSR2,
drives the App. B synchronization, migrates the affected subprocess to
a freshly selected free host, and resumes.  The final state is compared
bit-for-bit against the serial program.

Run:  python examples/distributed_run.py [--steps 60] [--blocks 2 2]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.distrib import (
    DistributedRun,
    ProblemSpec,
    RunSettings,
    initial_fields,
    read_journal,
)
from repro.trace import format_breakdown_table, summarize


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--blocks", type=int, nargs=2, default=(2, 2))
    ap.add_argument("--method", choices=("lb", "fd"), default="lb")
    ap.add_argument("--workdir", default=None,
                    help="run directory (default: a temp dir)")
    args = ap.parse_args()

    spec = ProblemSpec(
        method=args.method,
        grid_shape=(48, 32),
        blocks=tuple(args.blocks),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )
    fields = initial_fields(spec, "rest")

    # serial reference, through the same facade the library documents
    serial = repro.run(
        ProblemSpec(method=spec.method, grid_shape=spec.grid_shape,
                    blocks=(1, 1), periodic=spec.periodic,
                    params=spec.params, geometry=spec.geometry),
        backend="serial", steps=args.steps, fields=fields,
    )

    workdir = args.workdir or tempfile.mkdtemp(prefix="skordos-")
    run_dir = Path(workdir) / "run"
    print(f"work directory: {run_dir}")

    # DistributedRun (not repro.run) because the demo needs the live
    # monitor and host registry mid-run; every rank traces itself
    run = DistributedRun(
        spec, fields, run_dir,
        RunSettings(steps=args.steps, save_every=max(args.steps // 2, 10),
                    run_timeout=300, trace=True),
    )
    monitor = run.start()
    print(f"submitted {run.decomp.n_active} workers "
          f"(job-submit program selected free hosts: "
          f"{[h.name for h in run.hostdb.hosts() if h.rank is not None]})")

    # A regular user starts a full-time job on rank 1's workstation as
    # the run begins: ranks start in milliseconds (forked from the rank
    # host), so a later moment could find a short run already finished.
    host = run.hostdb.host_of_rank(1)
    print(f"\n*** regular user starts a full-time job on "
          f"{host.name} (load 2.2 > 1.5) ***\n")
    run.hostdb.set_load(host.name, load5=2.2)
    run.wait()
    out = run.collect()

    print(f"run complete: {monitor.migrations} migration(s), "
          f"{monitor.restarts} restart(s)")
    ok = all(
        np.array_equal(out[name], serial.fields[name])
        for name in serial.fields
    )
    print(f"distributed result == serial result, bit for bit: {ok}")
    for rec in read_journal(run_dir):
        print(f"  {rec['who']:>7} {rec['kind']:<16} {rec['msg']}")

    print("\nwhere each rank spent its time (migration pause included):")
    print(format_breakdown_table(summarize(run_dir)))
    print(f"merged Chrome trace (open in Perfetto): "
          f"{run_dir / 'trace' / 'trace.json'}")
    assert ok


if __name__ == "__main__":
    main()
