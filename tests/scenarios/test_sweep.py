"""The sweep driver: grid expansion, manifest resume, reports.

The executor is stubbed — these tests exercise the driver logic, not
the solvers (the slow e2e test runs a real sweep through a live
gateway).
"""

import json

import numpy as np
import pytest

from repro.scenarios import (
    Case,
    Param,
    Scenario,
    Score,
    expand_grid,
    parse_grid,
    run_sweep,
    write_report,
)
from repro._jsonl import LogDamaged
from repro.scenarios import sweep as sweep_mod
from repro.distrib import ProblemSpec
from repro.facade import RunResult


class TestParseGrid:
    def test_types(self):
        grid = parse_grid(["Re=100,400", "nu=0.1,0.2", "method=lb,fd",
                           "flag=true"])
        assert grid["Re"] == [100, 400]
        assert grid["nu"] == [0.1, 0.2]
        assert grid["method"] == ["lb", "fd"]
        assert grid["flag"] == [True]

    def test_malformed_is_loud(self):
        with pytest.raises(ValueError, match="must look like"):
            parse_grid(["Re"])
        with pytest.raises(ValueError, match="must look like"):
            parse_grid(["Re="])

    def test_duplicate_is_loud(self):
        with pytest.raises(ValueError, match="twice"):
            parse_grid(["Re=100", "Re=400"])


class TestExpandGrid:
    def test_cartesian_product_is_deterministic(self):
        points = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert points == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_empty_grid_is_the_default_point(self):
        assert expand_grid({}) == [{}]


class FakeScenario(Scenario):
    """Scores pass iff nu <= 0.5; the 'run' is a stub."""

    name = "fake"
    version = 3
    title = "driver-test scenario"
    reference = "none"
    params = {
        "nu": Param(0.1, "viscosity", lo=0.0, hi=1.0),
        "n": Param(8, "box side", lo=4, hi=64),
    }

    def _build(self, p):
        spec = ProblemSpec(
            method="lb", grid_shape=(p["n"], p["n"]), blocks=(1, 1),
            periodic=(True, True), params={"nu": p["nu"]},
        )
        return Case(spec, {"steps": 10, "diag_every": 5})

    def _score(self, p, result):
        return Score.check({"nu": p["nu"]}, {"nu": 0.5})


def _stub_result():
    return RunResult(backend="serial", steps=10, elapsed=2.0,
                     fields={"rho": np.ones((4, 4))})


@pytest.fixture
def stub_runs(monkeypatch):
    calls = []

    def fake_run_case(case, backend="serial", workdir=None):
        calls.append(case)
        return _stub_result()

    monkeypatch.setattr(sweep_mod, "run_case", fake_run_case)
    return calls


class TestRunSweep:
    def test_scores_every_point(self, stub_runs, tmp_path):
        points = run_sweep(
            FakeScenario(), {"nu": [0.1, 0.9]}, out_dir=tmp_path
        )
        assert [p.passed for p in points] == [True, False]
        assert len(stub_runs) == 2
        # throughput from grid nodes x steps / elapsed
        assert points[0].nodes_per_sec == pytest.approx(8 * 8 * 10 / 2.0)

    def test_manifest_resume_skips_settled_points(self, stub_runs,
                                                  tmp_path):
        scenario = FakeScenario()
        run_sweep(scenario, {"nu": [0.1, 0.2]}, out_dir=tmp_path)
        assert len(stub_runs) == 2
        # second run: one old point, one new — only the new one runs
        points = run_sweep(scenario, {"nu": [0.2, 0.3]},
                           out_dir=tmp_path)
        assert len(stub_runs) == 3
        assert all(p.state == "done" for p in points)
        # the manifest now settles all three
        lines = (tmp_path / "sweep.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_resume_ignores_other_scenario_versions(self, stub_runs,
                                                    tmp_path):
        scenario = FakeScenario()
        run_sweep(scenario, {"nu": [0.1]}, out_dir=tmp_path)
        bumped = FakeScenario()
        bumped.version = 4
        run_sweep(bumped, {"nu": [0.1]}, out_dir=tmp_path)
        assert len(stub_runs) == 2, \
            "a version bump must invalidate manifest entries"

    def test_resume_drops_a_torn_last_line(self, stub_runs, tmp_path):
        scenario = FakeScenario()
        run_sweep(scenario, {"nu": [0.1]}, out_dir=tmp_path)
        with open(tmp_path / "sweep.jsonl", "a") as fh:
            fh.write('{"scenario": "fake", "vers')  # torn
        run_sweep(scenario, {"nu": [0.1]}, out_dir=tmp_path)
        assert len(stub_runs) == 1

    def test_resume_appends_after_a_torn_line(self, stub_runs, tmp_path):
        """Points settled after a torn write land on fresh lines, so a
        second resume neither raises nor reruns them."""
        scenario = FakeScenario()
        run_sweep(scenario, {"nu": [0.1]}, out_dir=tmp_path)
        manifest = tmp_path / "sweep.jsonl"
        with open(manifest, "a") as fh:
            fh.write('{"scenario": "fake", "vers')  # torn
        run_sweep(scenario, {"nu": [0.1, 0.2, 0.3]}, out_dir=tmp_path)
        assert len(stub_runs) == 3
        lines = manifest.read_text().splitlines()
        assert [json.loads(l)["params"]["nu"] for l in lines] == [
            0.1, 0.2, 0.3]
        run_sweep(scenario, {"nu": [0.1, 0.2, 0.3]}, out_dir=tmp_path)
        assert len(stub_runs) == 3

    @pytest.mark.parametrize("damage", ["{not json", '{"bogus": 1}'])
    def test_resume_refuses_a_damaged_middle_line(self, stub_runs,
                                                  tmp_path, damage):
        scenario = FakeScenario()
        run_sweep(scenario, {"nu": [0.1, 0.2]}, out_dir=tmp_path)
        manifest = tmp_path / "sweep.jsonl"
        first, second = manifest.read_text().splitlines()
        manifest.write_text(f"{first}\n{damage}\n{second}\n")
        with pytest.raises(LogDamaged, match="sweep.jsonl, line 2"):
            run_sweep(scenario, {"nu": [0.1, 0.2]}, out_dir=tmp_path)
        assert len(stub_runs) == 2

    def test_no_resume_recomputes(self, stub_runs, tmp_path):
        scenario = FakeScenario()
        run_sweep(scenario, {"nu": [0.1]}, out_dir=tmp_path)
        run_sweep(scenario, {"nu": [0.1]}, out_dir=tmp_path,
                  resume=False)
        assert len(stub_runs) == 2

    def test_one_bad_point_does_not_sink_the_sweep(self, monkeypatch,
                                                   tmp_path):
        def exploding_run_case(case, backend="serial", workdir=None):
            if case.spec.params["nu"] == 0.2:
                raise RuntimeError("boom")
            return _stub_result()

        monkeypatch.setattr(sweep_mod, "run_case", exploding_run_case)
        points = run_sweep(FakeScenario(), {"nu": [0.1, 0.2, 0.3]},
                           out_dir=tmp_path)
        assert [p.state for p in points] == ["done", "failed", "done"]
        assert "boom" in points[1].error

    def test_invalid_grid_value_is_loud_before_any_run(self, stub_runs):
        with pytest.raises(ValueError, match="above maximum"):
            run_sweep(FakeScenario(), {"nu": [0.1, 5.0]})
        assert not stub_runs


class TestWriteReport:
    def test_summary_files(self, stub_runs, tmp_path):
        scenario = FakeScenario()
        points = run_sweep(scenario, {"nu": [0.1, 0.9]},
                           out_dir=tmp_path)
        md = write_report(points, tmp_path, scenario)
        text = md.read_text()
        assert "| params | score | nu | nodes/s |" in text
        assert "**FAIL**" in text and "pass" in text
        assert "## Failures" in text
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] == 1 and summary["failed"] == 1
        assert len(summary["points"]) == 2
