"""ProblemSpec serialization and reconstruction."""

import json

import numpy as np
import pytest

from repro.distrib import ProblemSpec, initial_fields
from repro.fluids import FDMethod, LBMethod


def _spec(**kw):
    base = dict(
        method="lb",
        grid_shape=(32, 24),
        blocks=(2, 2),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0)},
        geometry={"kind": "channel"},
    )
    base.update(kw)
    return ProblemSpec(**base)


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            _spec(method="spectral")

    def test_unknown_geometry(self):
        with pytest.raises(ValueError):
            _spec(geometry={"kind": "moebius"})


class TestRoundTrip:
    def test_json(self):
        spec = _spec()
        again = ProblemSpec.from_json(spec.to_json())
        assert again == spec

    def test_file(self, tmp_path):
        spec = _spec(method="fd", geometry={"kind": "flue_pipe",
                                            "jet_speed": 0.08})
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ProblemSpec.load(path) == spec

    def test_tuple_types_restored(self):
        again = ProblemSpec.from_json(_spec().to_json())
        assert isinstance(again.grid_shape, tuple)
        assert isinstance(again.periodic, tuple)
        assert again.periodic == (True, False)


class TestBuilders:
    def test_build_method_lb(self):
        m = _spec().build_method()
        assert isinstance(m, LBMethod)
        assert m.params.nu == 0.1

    def test_build_method_fd(self):
        m = _spec(method="fd").build_method()
        assert isinstance(m, FDMethod)

    def test_build_geometry_channel(self):
        solid, inlets, outlets = _spec().build_geometry()
        assert solid is not None and solid[:, 0].all()
        assert inlets == [] and outlets == []

    def test_build_geometry_open(self):
        solid, _, _ = _spec(geometry={"kind": "open"}).build_geometry()
        assert solid is None

    def test_build_geometry_flue(self):
        spec = _spec(
            method="lb",
            grid_shape=(96, 64),
            blocks=(2, 2),
            periodic=(False, False),
            params={"nu": 0.1},
            geometry={"kind": "flue_pipe", "jet_speed": 0.05},
        )
        solid, inlets, outlets = spec.build_geometry()
        assert solid.any()
        assert len(inlets) == 1 and len(outlets) == 1
        method = spec.build_method()
        assert method.inlets and method.outlets

    def test_geometry_rebuild_is_deterministic(self):
        """Two reconstructions (e.g. before and after a migration)
        produce identical boundary conditions."""
        spec = _spec(
            grid_shape=(96, 64),
            periodic=(False, False),
            geometry={"kind": "flue_pipe", "jet_speed": 0.05,
                      "ramp_steps": 30},
        )
        a, _, _ = spec.build_geometry()
        b, _, _ = spec.build_geometry()
        np.testing.assert_array_equal(a, b)
        m1, m2 = spec.build_method(), spec.build_method()
        assert m1.inlets[0].velocity_at(7) == m2.inlets[0].velocity_at(7)

    def test_build_decomposition_skips_solid_blocks(self):
        spec = _spec(
            grid_shape=(192, 128),
            blocks=(6, 4),
            periodic=(False, False),
            geometry={"kind": "flue_pipe", "variant": "channel"},
        )
        d = spec.build_decomposition()
        assert d.n_active < 24


HYBRID = {
    "default": "lb",
    "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}],
}


class TestMethodMap:
    """The v2 region-aware method field and its v1 compat shim."""

    def test_uniform_string_is_v1(self):
        spec = _spec()
        assert spec.spec_version == 1
        assert not spec.is_hybrid
        assert spec.method_names == ("lb",)
        assert spec.methods_by_rank() == ("lb",) * 4

    def test_map_selecting_one_method_normalizes_to_v1_string(self):
        """Spelling variants of a single-method problem collapse to
        the canonical string — they must hash identically downstream."""
        for method in (
            {"default": "lb"},
            {"default": "lb", "regions": []},
            {"default": "lb",
             "regions": [{"box": [[0, 0], [16, 24]], "method": "lb"}]},
        ):
            spec = _spec(method=method)
            assert spec.method == "lb"
            assert spec.spec_version == 1

    def test_hybrid_map_is_v2(self):
        spec = _spec(method=HYBRID, blocks=(2, 1))
        assert spec.spec_version == 2
        assert spec.is_hybrid
        assert spec.method_names == ("fd", "lb")
        assert spec.methods_by_rank() == ("lb", "fd")

    def test_hybrid_pad_is_the_widest_method(self):
        from repro.fluids import FDMethod, LBMethod

        spec = _spec(method=HYBRID, blocks=(2, 1))
        assert spec.pad == max(FDMethod.pad, LBMethod.pad)
        assert _spec().pad == LBMethod.pad

    def test_region_cutting_through_block_raises(self):
        spec = _spec(method={
            "default": "lb",
            "regions": [{"box": [[10, 0], [32, 24]], "method": "fd"}],
        }, blocks=(2, 1))
        with pytest.raises(ValueError, match="cuts through"):
            spec.methods_by_rank()

    def test_last_containing_region_wins(self):
        spec = _spec(method={
            "default": "lb",
            "regions": [
                {"box": [[0, 0], [32, 24]], "method": "fd"},
                {"box": [[0, 0], [16, 24]], "method": "lb"},
            ],
        }, blocks=(2, 1))
        assert spec.methods_by_rank() == ("lb", "fd")

    @pytest.mark.parametrize("method", [
        {"default": "spectral"},
        {"default": "lb", "regions": [{"box": [[0, 0], [8, 8]],
                                       "method": "spectral"}]},
        {"default": "lb", "regions": [{"box": [[0, 0], [8, 8]]}]},
        {"default": "lb", "regions": [{"box": [[0, 0], [40, 24]],
                                       "method": "fd"}]},
        {"default": "lb", "regions": [{"box": [[0, 0, 0], [8, 8, 8]],
                                       "method": "fd"}]},
        {"default": "lb", "typo": 1},
        42,
    ])
    def test_malformed_maps_rejected(self, method):
        with pytest.raises(ValueError):
            _spec(method=method)

    def test_params_dict_not_mutated(self):
        params = {"nu": 0.1, "gravity": [1e-5, 0.0]}
        _spec(params=params)
        assert params["gravity"] == [1e-5, 0.0]


class TestSpecVersioning:
    def test_v1_json_has_no_version_key(self):
        """The v1 wire form is byte-stable across the redesign: old
        checkpoints and serve cache hashes must keep working."""
        raw = json.loads(_spec().to_json())
        assert "spec_version" not in raw

    def test_v2_json_carries_explicit_version(self):
        raw = json.loads(_spec(method=HYBRID, blocks=(2, 1)).to_json())
        assert raw["spec_version"] == 2

    def test_hybrid_round_trip(self):
        spec = _spec(method=HYBRID, blocks=(2, 1))
        again = ProblemSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_version == 2

    def test_unknown_version_is_loud(self):
        raw = json.loads(_spec().to_json())
        raw["spec_version"] = 7
        with pytest.raises(ValueError, match="unknown spec_version"):
            ProblemSpec.from_json(json.dumps(raw))

    def test_v1_claiming_a_method_map_is_rejected(self):
        raw = json.loads(_spec(method=HYBRID, blocks=(2, 1)).to_json())
        raw["spec_version"] = 1
        with pytest.raises(ValueError, match="cannot carry a method map"):
            ProblemSpec.from_json(json.dumps(raw))


class TestHybridBuilders:
    def test_build_methods_one_instance_per_kind(self):
        spec = _spec(method=HYBRID, blocks=(4, 1))
        methods = spec.build_methods()
        assert [type(m).__name__ for m in methods] == [
            "LBMethod", "LBMethod", "FDMethod", "FDMethod"]
        assert methods[0] is methods[1] and methods[2] is methods[3]
        # every instance carries the run-wide ghost width
        assert {m.pad for m in methods} == {spec.pad}

    def test_build_methods_uniform_spec(self):
        methods = _spec().build_methods()
        assert len(methods) == 4
        assert len({id(m) for m in methods}) == 1

    def test_build_method_raises_for_hybrid(self):
        with pytest.raises(ValueError, match="build_methods"):
            _spec(method=HYBRID, blocks=(2, 1)).build_method()


class TestInitialFields:
    def test_rest(self):
        f = initial_fields(_spec(), "rest")
        assert set(f) == {"rho", "u", "v"}
        assert (f["rho"] == 1.0).all()
        assert not f["u"].any()

    def test_standing_wave(self):
        f = initial_fields(_spec(geometry={"kind": "open"}),
                           "standing_wave", mode=2, amplitude=1e-3)
        assert f["rho"].std() > 0
        assert np.allclose(f["rho"].mean(), 1.0, atol=1e-6)

    def test_random_reproducible(self):
        spec = _spec()
        a = initial_fields(spec, "random", seed=42)
        b = initial_fields(spec, "random", seed=42)
        np.testing.assert_array_equal(a["rho"], b["rho"])

    def test_solid_nodes_at_rest(self):
        spec = _spec()
        f = initial_fields(spec, "random", seed=1)
        solid, _, _ = spec.build_geometry()
        assert (f["rho"][solid] == 1.0).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            initial_fields(_spec(), "vortex-sheet")


class TestNewGeometryKinds:
    def test_cavity_builds_walls_and_lid(self):
        spec = _spec(
            grid_shape=(34, 34), periodic=(False, False),
            geometry={"kind": "cavity", "lid_speed": 0.15},
        )
        solid, inlets, outlets = spec.build_geometry()
        assert solid[0, :].all() and solid[-1, :].all()
        assert solid[:, 0].all() and solid[:, -1].all()
        assert len(inlets) == 1 and not outlets
        lid = inlets[0]
        # lid row is the topmost fluid row, full cavity width
        assert lid.box.lo == (1, 32) and lid.box.hi == (33, 33)
        assert lid.velocity == (0.15, 0.0)

    def test_cavity_is_2d_only(self):
        spec = _spec(
            grid_shape=(18, 18, 18), blocks=(1, 1, 1),
            periodic=(False, False, False),
            geometry={"kind": "cavity"},
        )
        with pytest.raises(ValueError, match="two-dimensional"):
            spec.build_geometry()

    def test_cylinder_builds_obstacle(self):
        spec = _spec(
            grid_shape=(96, 48), blocks=(2, 1),
            geometry={"kind": "cylinder", "radius_frac": 0.1,
                      "center_frac": (0.25, 0.5)},
        )
        solid, inlets, outlets = spec.build_geometry()
        assert not inlets and not outlets
        assert solid[24, 24]          # cylinder center is solid
        assert not solid[72, 24]      # wake is fluid
        assert solid[:, 0].all() and solid[:, -1].all()

    def test_cylinder_center_frac_round_trips(self):
        spec = _spec(
            grid_shape=(96, 48), blocks=(2, 1),
            geometry={"kind": "cylinder", "center_frac": [0.25, 0.5]},
        )
        again = ProblemSpec.from_json(spec.to_json())
        assert again == spec
        assert isinstance(again.geometry["center_frac"], tuple)


class TestInitField:
    def test_default_json_has_no_init_key(self):
        # pre-init artifacts (and serve content hashes) must not change
        assert "init" not in json.loads(_spec().to_json())

    def test_init_round_trips(self):
        spec = _spec(
            grid_shape=(32, 32), periodic=(True, True),
            geometry={"kind": "open"},
            init={"kind": "taylor_green", "u0": 0.04},
        )
        raw = json.loads(spec.to_json())
        assert raw["init"] == {"kind": "taylor_green", "u0": 0.04}
        assert ProblemSpec.from_json(spec.to_json()) == spec

    def test_init_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            _spec(init={"u0": 0.04})

    def test_unknown_init_kind_rejected(self):
        with pytest.raises(ValueError, match="vortex-sheet"):
            _spec(init={"kind": "vortex-sheet"})

    def test_initial_fields_resolves_spec_init(self):
        spec = _spec(
            grid_shape=(32, 32), periodic=(True, True),
            geometry={"kind": "open"},
            init={"kind": "taylor_green", "u0": 0.04},
        )
        f = initial_fields(spec, None)
        assert np.abs(f["u"]).max() == pytest.approx(0.04, rel=1e-6)
        # explicit kind still wins
        r = initial_fields(spec, "rest")
        assert not r["u"].any()

    def test_taylor_green_needs_square_box(self):
        spec = _spec(geometry={"kind": "open"}, periodic=(True, True),
                     init={"kind": "taylor_green"})
        with pytest.raises(ValueError, match="square"):
            initial_fields(spec, None)
