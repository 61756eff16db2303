"""Meta-tests on the public API surface.

Every name exported through ``__all__`` must resolve, and every public
callable must carry a docstring — the deliverable is a library, and a
library's documentation contract is testable.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PACKAGES = [
    "repro",
    "repro.core",
    "repro.fluids",
    "repro.net",
    "repro.distrib",
    "repro.cluster",
    "repro.balance",
    "repro.harness",
    "repro.serve",
    "repro.trace",
    "repro.viz",
    "repro.tools",
]


@pytest.mark.parametrize("modname", PACKAGES)
def test_module_docstring(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, modname


@pytest.mark.parametrize("modname", PACKAGES)
def test_all_exports_resolve(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", [])
    for name in exported:
        assert hasattr(mod, name), f"{modname}.{name} in __all__ missing"


@pytest.mark.parametrize("modname", [p for p in PACKAGES if p != "repro"])
def test_public_callables_documented(modname):
    mod = importlib.import_module(modname)
    undocumented = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if callable(obj) and not inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
        elif inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if callable(meth) and not (
                    getattr(meth, "__doc__", "") or ""
                ).strip():
                    undocumented.append(f"{name}.{meth_name}")
    assert not undocumented, (
        f"{modname}: public API without docstrings: {undocumented}"
    )


def test_version():
    """``repro.__version__`` is the version ``pyproject.toml`` ships
    (read with a regex: Python 3.10 has no ``tomllib``)."""
    import repro

    match = re.search(r'^version = "([^"]+)"', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert match, "no version line in pyproject.toml"
    assert repro.__version__ == match.group(1)


def test_facade_exports():
    """The unified entry point is importable from the top level."""
    import repro

    assert callable(repro.run)
    assert inspect.isclass(repro.RunResult)
    assert repro.BACKENDS == ("serial", "threaded", "distributed",
                              "simulated", "service")
    for name in ("run", "RunResult", "trace"):
        assert name in repro.__all__, name


def test_trace_exports():
    """The tracing layer's contract surface."""
    from repro import trace

    for name in ("NullTracer", "Tracer", "NULL_TRACER", "span_category",
                 "merge_traces", "write_chrome_trace", "summarize",
                 "TraceSummary", "format_breakdown_table"):
        assert name in trace.__all__, name
    assert trace.NULL_TRACER.enabled is False


@pytest.mark.slow
def test_distributed_trace_round_trip(tmp_path):
    """A real 4-rank run's per-rank streams merge into valid Chrome
    trace-event JSON: one pid lane per rank, complete events with
    microsecond timestamps, and a consistent §7 summary."""
    import json

    import repro
    from repro.distrib import ProblemSpec, RunSettings

    spec = ProblemSpec(
        method="fd",
        grid_shape=(32, 24),
        blocks=(2, 2),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )
    r = repro.run(spec, "distributed",
                  RunSettings(steps=8, trace=True),
                  workdir=tmp_path / "run")
    data = json.loads(r.trace_path.read_text())
    assert set(data) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert data["otherData"]["ranks"] == 4
    events = data["traceEvents"]
    pids = {e["pid"] for e in events}
    assert pids == {0, 1, 2, 3}
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "no complete events in the merged trace"
    for e in complete:
        assert e["dur"] >= 0 and "ts" in e and "name" in e
    # every rank contributed compute and exchange spans for every step
    for pid in pids:
        names = {e["name"] for e in complete if e["pid"] == pid}
        assert "compute:0" in names and "exchange:0" in names
    assert r.trace_summary.n_ranks == 4
    assert all(bd.steps == 8 for bd in r.trace_summary.ranks)


def test_no_accidental_numpy_reexport():
    """Submodule namespaces stay clean: no `np`/`numpy` leaking through
    __all__ anywhere."""
    for modname in PACKAGES:
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            assert name not in ("np", "numpy"), modname
