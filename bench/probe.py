"""One set-up of a workload in a fresh interpreter (timed from outside).

Imports ``repro`` and completes a 1-step ``repro.run`` of the workload's
spec; for ``serve_mix`` it starts the gateway, waits until every pool
worker has heartbeated, and shuts down.  ``setup_s`` is the wall time of
this process from spawn to exit.

usage: probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.workloads import WORKLOADS, make_inputs, start_gateway  # noqa: E402


def main(name: str, seed: str, workdir: str) -> int:
    import repro

    wl = WORKLOADS[name]
    if not wl.backend:
        start_gateway(Path(workdir)).shutdown()
        return 0
    repro.run(wl.spec, wl.backend, steps=1,
              fields=make_inputs(wl.spec, int(seed)),
              workdir=workdir if wl.backend == "distributed" else None)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
