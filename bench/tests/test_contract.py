"""BENCHMARK.json against its schema limits and against what the runner emits."""

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT
from bench.workloads import WORKLOADS

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    # a run is run_seconds of measuring (set-up probes included) plus at
    # most 5 s of import, warm-up, overshoot and final check
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 5) < 0.9 * 3420


def test_names_units_and_bounds():
    names = []
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_workload_set_is_the_runners():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


def _run(*argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_emits_exactly_the_declared_metrics(trace, key):
    """``--quick`` end to end on fd2d_serial, through the contract's CLI."""
    got = _run("--workload", "fd2d_serial", "--seed", "3", "--seconds", "1",
               "--trace", trace, "--quick")
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] is True and got["failed"] == 0
    assert got["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == declared
    if key == "end_to_end":
        assert all(v["value"] > 0 for v in got["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fd2d_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
