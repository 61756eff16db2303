"""Import discipline: a process loads only the subsystems it runs.

Each rank worker, serve pool worker and CLI or bench parent is a fresh
interpreter whose start-up is mostly imports, so the package exports
lazily and cross-subsystem imports sit at their call sites.  Every
check here runs in a fresh interpreter and compares ``sys.modules``
before and after the statement under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: subsystems a rank worker never runs
NOT_IN_WORKER = (
    "repro.balance", "repro.cluster", "repro.serve", "repro.harness",
    "repro.scenarios", "repro.viz", "repro.tools",
)


def _new_modules(code: str, setup: str = "") -> set[str]:
    """The ``repro`` modules ``code`` imports beyond those of ``setup``."""
    script = "\n".join([
        "import json, sys",
        setup,
        "before = set(sys.modules)",
        code,
        "new = set(sys.modules) - before",
        'print(json.dumps(sorted(m for m in new if m.startswith("repro"))))',
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def _under(modules: set[str], packages) -> set[str]:
    return {m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)}


def test_import_repro_loads_no_subpackage():
    assert _new_modules("import repro") <= {"repro", "repro._lazy"}


#: in-process runner modules, loaded only by ``ProblemSpec.build_simulation``
#: and the facade, never by a rank that steps its own subregion
IN_PROCESS_RUNNERS = (
    "repro.core.runner", "repro.core.threaded", "repro.core.taskgraph",
    "repro.facade",
)


def test_worker_loads_only_what_a_rank_runs():
    loaded = _new_modules("import repro.distrib.worker")
    assert "repro.distrib.worker" in loaded
    assert not _under(loaded, NOT_IN_WORKER + IN_PROCESS_RUNNERS)


def test_rank_host_preloads_exactly_the_worker_closure():
    """The host imports once what every forked rank runs, and nothing
    else: its own module adds no import, its preload is the worker's."""
    assert _new_modules("import repro.distrib.rankhost") == {
        "repro", "repro._lazy", "repro.distrib", "repro.distrib.rankhost"}
    preloaded = _new_modules("rankhost.preload()",
                             "from repro.distrib import rankhost")
    assert preloaded == _new_modules("import repro.distrib.worker",
                                     "import repro.distrib")


def test_spec_and_settings_skip_monitor_and_planner():
    loaded = _new_modules("from repro.distrib import ProblemSpec, RunSettings")
    assert {"repro.distrib.spec", "repro.distrib.orchestrator"} <= loaded
    assert not _under(loaded, ("repro.distrib.monitor", "repro.balance"))


def test_threaded_step_loads_no_model_or_fault_code():
    """The threaded runner plans and runs its task graph from core
    alone: neither the cluster model nor the fault injector loads."""
    code = "\n".join([
        "import numpy as np",
        "from repro.core import Decomposition, ThreadedSimulation",
        "from repro.fluids import FDMethod, FluidParams",
        "shape = (16, 12)",
        "fields = {'rho': np.ones(shape), 'u': np.zeros(shape),",
        "          'v': np.zeros(shape)}",
        "sim = ThreadedSimulation(",
        "    FDMethod(FluidParams.lattice(2, nu=0.05), 2),",
        "    Decomposition(shape, (2, 1), periodic=(True, True)), fields)",
        "sim.step(1)",
        "assert sim.step_count == 1",
    ])
    loaded = _new_modules(code)
    assert "repro.core.threaded" in loaded
    assert not _under(loaded, ("repro.cluster", "repro.chaos", "repro.graph"))


def test_simulator_loads_no_fault_or_network_code():
    """The cluster simulator prices messages on its own modeled bus:
    neither the fault injector nor the socket layer loads with it."""
    loaded = _new_modules("import repro.cluster.simulator")
    assert "repro.cluster.simulator" in loaded
    assert not _under(loaded, ("repro.chaos", "repro.net"))


def test_pool_worker_warm_set_covers_a_serial_job(tmp_path):
    """The first "idle" heartbeat means warm: after the warm-up imports,
    a small serial job imports nothing more of the package."""
    setup = (
        "import importlib\n"
        "from repro.serve.pool_worker import WARM_MODULES, run_job\n"
        "for name in WARM_MODULES: importlib.import_module(name)"
    )
    spec = {
        "method": "lb", "grid_shape": [16, 12], "blocks": [1, 1],
        "periodic": [True, False], "geometry": {"kind": "channel"},
    }
    job_dir = tmp_path / "jobs" / "j0"
    job_dir.mkdir(parents=True)
    (job_dir / "job.json").write_text(json.dumps({
        "job_id": "j0", "seed": 1, "backend": "serial",
        "spec": spec, "settings": {"steps": 3},
    }))
    code = (
        "from pathlib import Path\n"
        f"run_job(Path({str(tmp_path)!r}), 'j0', 0)"
    )
    assert _new_modules(code, setup) == set()
    assert (job_dir / "result.json").exists(), (
        (job_dir / "error.json").read_text()
        if (job_dir / "error.json").exists() else "no result")
