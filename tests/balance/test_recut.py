"""Re-cutting dumped state into weighted blocks: the live epoch's core."""

import numpy as np
import pytest

from repro.balance import RecutError, check_rebalanceable, recut_problem
from repro.core import assemble_global
from repro.distrib import (
    ProblemSpec,
    decompose_problem,
    initial_fields,
    load_dumps,
)


def _spec(blocks=(4, 1), grid_shape=(48, 24), weights=None):
    return ProblemSpec(
        method="lb",
        grid_shape=grid_shape,
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1},
        geometry={"kind": "channel"},
        weights=weights,
    )


def _workdir(tmp_path, spec, seed=11):
    fields = initial_fields(spec, "random", seed=seed)
    decompose_problem(spec, fields, tmp_path)
    return fields


class TestCheckRebalanceable:
    def test_chain_all_active_passes(self):
        assert check_rebalanceable(_spec()).n_active == 4

    def test_non_chain_rejected(self):
        with pytest.raises(RecutError, match="chain"):
            check_rebalanceable(_spec(blocks=(2, 2)))

    def test_inactive_blocks_rejected(self):
        # 12-node cavity walls fill the first and last slab -> inactive
        spec = ProblemSpec(
            method="lb", grid_shape=(48, 48), blocks=(4, 1),
            periodic=(False, False),
            geometry={"kind": "cavity", "wall_nodes": 12},
        )
        d = spec.build_decomposition()
        assert d.n_active < d.n_blocks
        with pytest.raises(RecutError, match="active"):
            check_rebalanceable(spec)


class TestRecutProblem:
    def test_bad_share_count_rejected(self, tmp_path):
        _workdir(tmp_path, _spec())
        with pytest.raises(RecutError, match="shares for"):
            recut_problem(tmp_path, [24, 24], in_tag="state",
                          out_tag="recut")

    def test_bad_share_sum_rejected(self, tmp_path):
        _workdir(tmp_path, _spec())
        with pytest.raises(RecutError, match="sum"):
            recut_problem(tmp_path, [10, 10, 10, 10], in_tag="state",
                          out_tag="recut")

    def test_mismatched_steps_rejected(self, tmp_path):
        _workdir(tmp_path, _spec())
        subs = load_dumps(tmp_path / "dumps", 4)
        subs[2].step = 7
        from repro.distrib import dump_path, save_dump

        save_dump(subs[2], dump_path(tmp_path / "dumps", 2))
        with pytest.raises(RecutError, match="different steps"):
            recut_problem(tmp_path, [6, 15, 15, 12], in_tag="state",
                          out_tag="recut")

    def test_new_extents_match_shares(self, tmp_path):
        _workdir(tmp_path, _spec())
        shares = [6, 15, 15, 12]
        new = recut_problem(tmp_path, shares, in_tag="state",
                            out_tag="recut")
        rows = [b.hi[0] - b.lo[0]
                for b in sorted(new.active_blocks(), key=lambda b: b.rank)]
        assert rows == shares
        assert new.n_active_nodes == _spec().build_decomposition().n_active_nodes

    def test_spec_rewritten_with_weights(self, tmp_path):
        spec = _spec()
        _workdir(tmp_path, spec)
        shares = [6, 15, 15, 12]
        recut_problem(tmp_path, shares, in_tag="state", out_tag="recut")
        reloaded = ProblemSpec.load(tmp_path / "spec.json")
        assert reloaded.weights == ((6, 15, 15, 12), None)
        # the restarted workers rebuild the exact same decomposition
        rows = [b.hi[0] - b.lo[0]
                for b in sorted(reloaded.build_decomposition().active_blocks(),
                                key=lambda b: b.rank)]
        assert rows == shares

    def test_global_fields_preserved_bit_for_bit(self, tmp_path):
        spec = _spec()
        fields = _workdir(tmp_path, spec, seed=3)
        new = recut_problem(tmp_path, [6, 15, 15, 12], in_tag="state",
                            out_tag="recut")
        subs = load_dumps(tmp_path / "dumps", 4, tag="recut")
        for name in ("rho", "u", "v"):
            got = assemble_global(new, subs, name)
            np.testing.assert_array_equal(got, fields[name], err_msg=name)

    def test_round_trip_back_to_uniform(self, tmp_path):
        """Re-cut twice (skew, then back) and the state is unchanged."""
        spec = _spec()
        fields = _workdir(tmp_path, spec, seed=9)
        recut_problem(tmp_path, [6, 15, 15, 12], in_tag="state",
                      out_tag="skew")
        # rename the skewed dumps to be the next input tag
        for rank in range(4):
            from repro.distrib import dump_path

            dump_path(tmp_path / "dumps", rank, tag="skew").rename(
                dump_path(tmp_path / "dumps", rank, tag="skew_in"))
        new = recut_problem(tmp_path, [12, 12, 12, 12], in_tag="skew_in",
                            out_tag="back")
        subs = load_dumps(tmp_path / "dumps", 4, tag="back")
        for name in subs[0].field_names():
            got = assemble_global(new, subs, name)
            ref = np.asarray(fields[name]) if name in fields else None
            if ref is not None:
                np.testing.assert_array_equal(got, ref, err_msg=name)

    def test_ghosts_filled_from_global_state(self, tmp_path):
        """Recut dump ghosts equal what a fresh decomposition of the
        same global state produces — i.e. what exchanges would fill."""
        spec = _spec()
        fields = _workdir(tmp_path, spec, seed=5)
        shares = [6, 15, 15, 12]
        recut_problem(tmp_path, shares, in_tag="state", out_tag="recut")
        got = load_dumps(tmp_path / "dumps", 4, tag="recut")
        ref_dir = tmp_path / "ref"
        ref_spec = _spec(weights=(tuple(shares), None))
        decompose_problem(ref_spec, fields, ref_dir)
        ref = load_dumps(ref_dir / "dumps", 4)
        for g, r in zip(got, ref):
            for name in g.fields:
                np.testing.assert_array_equal(
                    g.fields[name], r.fields[name], err_msg=name)
