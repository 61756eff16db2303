"""The cache key's contract: physical identity, spelled any way.

Two submissions describing the same computation must collide; any knob
that can change the produced fields must separate.  These properties
are what make the result cache *correct* rather than merely fast — a
false collision serves the wrong physics, a false separation recomputes
forever.
"""

from dataclasses import fields

import pytest

from repro.distrib import ProblemSpec, RunSettings
from repro.serve import canonical_request, fingerprint
from repro.serve.hashing import PHYSICAL_KNOBS

SPEC_FIELDS = {
    "method": "lb",
    "grid_shape": (32, 24),
    "blocks": (2, 1),
    "periodic": (True, False),
    "params": {"nu": 0.05, "gravity": (1e-5, 0.0)},
    "geometry": {"kind": "channel"},
}


def _spec(**overrides) -> ProblemSpec:
    return ProblemSpec(**{**SPEC_FIELDS, **overrides})


class TestSpellingInvariance:
    def test_dict_and_problemspec_collide(self):
        spec = _spec()
        as_dict = {
            "method": "lb",
            "grid_shape": [32, 24],
            "blocks": [2, 1],
            "periodic": [True, False],
            "params": {"nu": 0.05, "gravity": [1e-5, 0.0]},
            "geometry": {"kind": "channel"},
        }
        assert fingerprint(spec) == fingerprint(as_dict)

    def test_field_order_independent(self):
        forward = {
            "method": "lb", "grid_shape": [16, 16],
            "blocks": [1, 1], "periodic": [True, True],
            "geometry": {"kind": "open"},
        }
        backward = {
            "geometry": {"kind": "open"}, "periodic": [True, True],
            "blocks": [1, 1], "grid_shape": [16, 16], "method": "lb",
        }
        assert fingerprint(forward) == fingerprint(backward)

    def test_defaults_explicit_or_implicit_collide(self):
        minimal = {
            "method": "lb", "grid_shape": [16, 16],
            "blocks": [1, 1], "periodic": [True, True],
        }
        spelled_out = ProblemSpec(
            method="lb", grid_shape=(16, 16), blocks=(1, 1),
            periodic=(True, True), params={}, geometry={"kind": "open"},
        )
        assert fingerprint(minimal) == fingerprint(spelled_out)

    def test_settings_default_forms_collide(self):
        spec = _spec()
        a = fingerprint(spec, settings=None)
        b = fingerprint(spec, settings={})
        c = fingerprint(spec, settings=RunSettings(steps=0))
        assert a == b == c

    def test_operational_knobs_do_not_separate(self):
        """Transport, tracing, checkpoint cadence, delays: *how* the
        run executes, never *what* it computes."""
        spec = _spec()
        base = fingerprint(spec, settings={"steps": 50})
        for knob in (
            {"transport": "udp"},
            {"trace": True},
            {"save_every": 5},
            {"step_delays": [0.01, 0.01]},
            {"job_id": "j000001-deadbeef"},
        ):
            assert fingerprint(spec, settings={"steps": 50, **knob}) \
                == base, f"{knob} leaked into the cache key"


class TestPhysicalSensitivity:
    def test_spec_params_separate(self):
        assert fingerprint(_spec()) != fingerprint(
            _spec(params={"nu": 0.06, "gravity": (1e-5, 0.0)})
        )

    def test_grid_shape_separates(self):
        assert fingerprint(_spec()) != fingerprint(
            _spec(grid_shape=(32, 32))
        )

    def test_steps_separate(self):
        spec = _spec()
        assert fingerprint(spec, settings={"steps": 50}) \
            != fingerprint(spec, settings={"steps": 51})

    def test_seed_separates(self):
        spec = _spec()
        assert fingerprint(spec, seed=0) != fingerprint(spec, seed=1)


class TestHybridSpecs:
    """v2 method maps in the cache key — and v1 keys frozen in place."""

    HYBRID = {
        "default": "lb",
        "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}],
    }

    def test_v1_fingerprint_frozen(self):
        """Golden value of a v1 spec: v1 specs serialize without a
        spec_version key, so the hybrid redesign left this hash alone.
        Re-pinned at canonical-form version 2, when ``diag_algorithm``
        left the physical knobs, at version 3, when the kernel
        ``backend``/``backends`` knobs were deleted, and at version 4,
        when ``diag_vmax``/``nan_step``/``nan_rank`` left them."""
        as_dict = {
            "method": "lb", "grid_shape": [32, 24], "blocks": [2, 1],
            "periodic": [True, False],
            "params": {"nu": 0.05, "gravity": [1e-5, 0.0]},
            "geometry": {"kind": "channel"},
        }
        assert fingerprint(as_dict) == (
            "4315f01d89bb6749e109451a93013fca"
            "75bbb1be24dc532c49974fa78b6e01ba"
        )

    def test_single_method_map_collides_with_plain_string(self):
        """A region map that selects one method everywhere is the same
        physics as the plain string — it must hit the same cache line."""
        noop_map = {
            "default": "lb",
            "regions": [{"box": [[0, 0], [16, 24]], "method": "lb"}],
        }
        assert fingerprint(_spec(method=noop_map)) == fingerprint(_spec())

    def test_hybrid_separates_from_uniform(self):
        assert fingerprint(_spec(method=self.HYBRID)) != fingerprint(_spec())

    def test_region_box_separates(self):
        other = {
            "default": "lb",
            "regions": [{"box": [[0, 0], [16, 24]], "method": "fd"}],
        }
        assert fingerprint(_spec(method=self.HYBRID)) \
            != fingerprint(_spec(method=other))

    def test_hybrid_spelling_invariant(self):
        """Tuples vs lists and dict-vs-ProblemSpec submission spell the
        same hybrid problem."""
        spelled = {
            "default": "lb",
            "regions": ({"box": ((16, 0), (32, 24)), "method": "fd"},),
        }
        assert fingerprint(_spec(method=self.HYBRID)) \
            == fingerprint(_spec(method=spelled))


class TestRejection:
    def test_unknown_settings_knob_rejected(self):
        # a typo, and knobs that no longer exist
        for knob in (
            "stepz", "diag_algorithm", "save_barrier",
            "niceness", "save_gap", "open_timeout", "reconnect_attempts",
            "reconnect_base", "hangup_grace", "strict_order",
            "nan_step", "nan_rank", "diag_vmax",
        ):
            with pytest.raises(ValueError, match="unknown settings knob"):
                fingerprint(_spec(), settings={knob: "tree"})

    def test_physical_knobs_are_settings(self):
        """Every hashed knob is a live RunSettings field."""
        assert set(PHYSICAL_KNOBS) <= {f.name for f in fields(RunSettings)}

    def test_kernel_backend_knob_rejected(self):
        """The kernel backend knobs are gone: a request still naming
        one fails loudly instead of hashing as if it were absent."""
        for settings in ({"backend": "numpy"}, {"backends": ["numpy"]}):
            with pytest.raises(ValueError, match="unknown settings knob"):
                fingerprint(_spec(), settings={"steps": 10, **settings})

    def test_canonical_request_shape(self):
        canon = canonical_request(_spec(), settings={"steps": 7}, seed=3)
        assert canon["version"] == 4
        assert canon["seed"] == 3
        assert canon["settings"]["steps"] == 7
        # the canonical form is pure JSON types (tuples flattened)
        import json

        assert json.loads(json.dumps(canon)) == canon
