"""The scenario registry contract: schemas, builders, scores.

Everything here is synthetic — cases are built and scored against
hand-constructed fields, no time stepping — so the whole scenario
contract stays inside the fast tier.  The physics of each scenario is
exercised by the slow sweep tests and ``repro sweep``.
"""

import json

import numpy as np
import pytest

import repro.scenarios as sc
from repro.distrib import ProblemSpec
from repro.distrib.diagnostics import DiagRecord
from repro.fluids.analytic import poiseuille_profile
from repro.scenarios import Case, Param, Scenario, Score
from repro.scenarios.base import diag_series
from repro.scenarios.library import HOU_CAVITY_CENTERS


class TestRegistry:
    def test_at_least_ten_scenarios(self):
        assert len(sc.names()) >= 10

    def test_every_scenario_is_described_and_scored(self):
        for s in sc.all_scenarios():
            d = s.describe()
            assert d["name"] == s.name
            assert d["title"] and d["reference"]
            assert d["version"] >= 1
            assert d["params"], f"{s.name} has no parameter schema"
            json.dumps(d)  # must be JSON-serializable for the CLI
            # a real score() implementation, not the base stub
            assert type(s)._score is not Scenario._score, s.name

    def test_every_case_round_trips_through_json(self):
        """A case must survive the serve layer: spec -> JSON -> spec."""
        for s in sc.all_scenarios():
            case = s.case()
            clone = ProblemSpec.from_json(case.spec.to_json())
            assert clone == case.spec, s.name
            assert case.settings.get("steps", 0) > 0, s.name
            json.dumps(case.settings)

    def test_get_unknown_name_is_loud(self):
        with pytest.raises(KeyError, match="available"):
            sc.get("warp_drive")

    def test_duplicate_registration_is_loud(self):
        with pytest.raises(ValueError, match="already registered"):
            sc.register(sc.get("poiseuille"))


class TestParamSchema:
    def test_defaults_and_overrides(self):
        s = sc.get("poiseuille")
        p = s.resolve()
        assert p["ny"] == 32
        p = s.resolve(ny=64)
        assert p["ny"] == 64 and p["nu"] == 0.1

    def test_unknown_param_is_loud(self):
        with pytest.raises(ValueError, match="no params"):
            sc.get("poiseuille").resolve(Re=100)

    def test_out_of_range_is_loud(self):
        with pytest.raises(ValueError, match="below minimum"):
            sc.get("poiseuille").resolve(ny=2)
        with pytest.raises(ValueError, match="above maximum"):
            sc.get("poiseuille").resolve(nu=10.0)

    def test_choices_are_enforced(self):
        with pytest.raises(ValueError, match="not in"):
            sc.get("cavity").resolve(Re=250)

    def test_numeric_strings_coerce(self):
        """Grid values arrive as parsed CLI text; ints must stay ints."""
        p = sc.get("cavity").resolve(Re=400)
        assert isinstance(p["Re"], int)
        param = Param(1.0, "x")
        assert param.validate("x", 2) == 2.0


class TestScore:
    def test_check_gates_bounded_residuals(self):
        score = Score.check({"a": 0.5, "b": 3.0}, {"a": 1.0, "b": 2.0})
        assert not score.passed
        assert score.failures == ["b: 3 > 2"]

    def test_missing_or_nonfinite_residual_fails(self):
        assert not Score.check({}, {"a": 1.0}).passed
        assert not Score.check({"a": float("nan")}, {"a": 1.0}).passed

    def test_unbounded_residuals_only_report(self):
        score = Score.check({"a": 0.5, "extra": 99.0}, {"a": 1.0})
        assert score.passed
        assert score.residuals["extra"] == 99.0

    def test_to_dict_round_trips_json(self):
        score = Score.check({"a": 0.5}, {"a": 1.0}, {"note": "hi"})
        clone = json.loads(json.dumps(score.to_dict()))
        assert clone["passed"] is True
        assert clone["details"] == {"note": "hi"}


class TestDiagSeries:
    def test_accepts_records_and_dicts(self):
        recs = [DiagRecord(step=10, total_mass=1.0, kinetic_energy=0.5,
                           max_speed=0.1, n_nonfinite=0)]
        dicts = [{"step": 10, "total_mass": 1.0, "kinetic_energy": 0.5,
                  "max_speed": 0.1, "n_nonfinite": 0}]
        for diags in (recs, dicts):
            np.testing.assert_allclose(
                diag_series(diags, "total_mass"), [1.0]
            )
        assert diag_series(recs, "no_such_column").size == 0


def _diags(mass):
    return [
        {"step": 100 * i, "total_mass": m, "kinetic_energy": 1.0,
         "max_speed": 0.01, "n_nonfinite": 0}
        for i, m in enumerate(mass)
    ]


class TestPoiseuilleScore:
    """Scored against the exact solution — no simulation needed."""

    def _fields(self, s, method, scale=1.0):
        p = s.resolve(method=method)
        case = s.case(method=method)
        nx, ny = case.spec.grid_shape
        offset = 0.5 if method == "lb" else 0.0
        span = (ny - 2.0) if method == "lb" else (ny - 1.0)
        y = np.arange(ny, dtype=float) - offset
        u = np.tile(
            poiseuille_profile(y, span, p["g"], p["nu"]) * scale, (nx, 1)
        )
        u[:, 0] = u[:, -1] = 0.0
        return {"u": u, "v": np.zeros((nx, ny)),
                "rho": np.ones((nx, ny))}

    @pytest.mark.parametrize("method", ["lb", "fd"])
    def test_exact_profile_passes(self, method):
        s = sc.get("poiseuille")
        score = s.score(self._fields(s, method),
                        _diags([100.0, 100.0]), method=method)
        assert score.passed, score.failures
        assert score.residuals["profile_err"] < 1e-12

    def test_perturbed_profile_fails(self):
        s = sc.get("poiseuille")
        score = s.score(self._fields(s, "lb", scale=1.05),
                        _diags([100.0, 100.0]))
        assert not score.passed
        assert "profile_err" in score.failures[0]

    def test_mass_drift_gates_when_sampled(self):
        s = sc.get("poiseuille")
        score = s.score(self._fields(s, "lb"), _diags([100.0, 101.0]))
        assert not score.passed
        assert any("mass_drift" in f for f in score.failures)


class TestCavityScore:
    def _vortex_fields(self, s, Re, at):
        """A synthetic swirl centered at cavity fraction ``at``."""
        case = s.case(Re=Re)
        nx, ny = case.spec.grid_shape
        n = nx - 2
        cx, cy = at[0] * n + 0.5, at[1] * n + 0.5
        x = np.arange(nx)[:, None] - cx
        y = np.arange(ny)[None, :] - cy
        r2 = (x * x + y * y) / (0.15 * n) ** 2
        swirl = 0.05 * np.exp(-r2)
        u, v = -y * swirl, x * swirl
        solid, _, _ = case.spec.build_geometry()
        u[solid] = v[solid] = 0.0
        return {"u": u, "v": v, "rho": np.ones((nx, ny))}

    @pytest.mark.parametrize("Re", sorted(HOU_CAVITY_CENTERS))
    def test_vortex_at_hou_center_passes(self, Re):
        s = sc.get("cavity")
        fields = self._vortex_fields(s, Re, HOU_CAVITY_CENTERS[Re])
        score = s.score(fields, Re=Re)
        assert score.passed, score.failures

    def test_vortex_far_from_reference_fails(self):
        s = sc.get("cavity")
        fields = self._vortex_fields(s, 100, (0.3, 0.3))
        score = s.score(fields, Re=100)
        assert not score.passed
        assert any("center_err" in f for f in score.failures)


class TestStructuralScores:
    def test_flue_pipe_needs_a_diagnostics_series(self):
        s = sc.get("flue_pipe")
        case = s.case()
        shape = case.spec.grid_shape
        fields = {name: np.zeros(shape) for name in ("u", "v")}
        fields["rho"] = np.ones(shape)
        score = s.score(fields, [])
        assert not score.passed
        assert "diagnostics" in score.failures[0]

    def test_conservation_needs_a_diagnostics_series(self):
        s = sc.get("conservation")
        score = s.score({"rho": np.ones((8, 8))}, [])
        assert not score.passed

    def test_conservation_gates_drift(self):
        s = sc.get("conservation")
        good = s.score({}, _diags([100.0, 100.0]))
        assert good.passed, good.failures
        bad = s.score({}, _diags([100.0, 100.0 + 1e-3]))
        assert not bad.passed

    def test_flue_pipe_channel_counts_inactive_blocks(self):
        """The fig. 2 geometry idles whole subregions of the 4x4 cut."""
        s = sc.get("flue_pipe_channel")
        case = s.case()
        decomp = case.spec.build_decomposition()
        total = int(np.prod(case.spec.blocks))
        assert len(decomp.active_blocks()) < total


class TestCaseSpecs:
    def test_cavity_viscosity_tracks_reynolds(self):
        s = sc.get("cavity")
        nu100 = s.case(Re=100).spec.params["nu"]
        nu400 = s.case(Re=400, n=64).spec.params["nu"]
        assert nu100 == pytest.approx(4 * nu400)

    def test_hybrid_channel_is_a_v2_spec(self):
        spec = sc.get("hybrid_channel").case().spec
        assert spec.is_hybrid
        assert spec.spec_version == 2
        assert set(spec.method_names) == {"fd", "lb"}

    def test_cylinder_wake_has_impulsive_start(self):
        spec = sc.get("cylinder_wake").case().spec
        assert spec.init["kind"] == "uniform_flow"

    def test_duct3d_is_three_dimensional(self):
        spec = sc.get("duct3d").case().spec
        assert spec.ndim == 3
