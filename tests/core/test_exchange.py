"""Ghost exchange: plans, the in-process exchanger, and its equivalence
with np.pad-based global ghost filling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Decomposition, LocalExchanger, build_plan, make_subregions


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape)


class TestBuildPlan:
    def test_interior_block_has_four_recv_ops_2d(self):
        d = Decomposition((30, 30), (3, 3))
        plan = build_plan(d, 4, pad=2)  # center block
        assert len(plan.recv_ops()) == 4
        assert plan.n_neighbors == 4

    def test_corner_block_mixes_recv_and_replicate(self):
        d = Decomposition((30, 30), (3, 3))
        plan = build_plan(d, 0, pad=2)
        kinds = sorted(op.kind for op in plan.ops)
        assert kinds.count("recv") == 2
        assert kinds.count("replicate") == 2

    def test_hold_towards_inactive_block(self):
        solid = np.zeros((24, 24), dtype=bool)
        solid[:12, :12] = True
        d = Decomposition((24, 24), (2, 2), solid=solid)
        # rank 0 is block (0,1): its -y face points at the solid block
        blk = d.by_rank(0)
        assert blk.index == (0, 1)
        plan = build_plan(d, 0, pad=2)
        kinds = {(op.axis, op.side): op.kind for op in plan.ops}
        assert kinds[(1, -1)] == "hold"

    def test_block_smaller_than_pad_rejected(self):
        d = Decomposition((8, 8), (4, 1))
        with pytest.raises(ValueError):
            build_plan(d, 1, pad=3)

    def test_strip_nodes(self):
        d = Decomposition((20, 12), (2, 1))
        plan = build_plan(d, 0, pad=2)
        op = plan.recv_ops()[0]
        # strip: 2 wide along x, full padded extent (12 + 4) along y
        assert op.strip_nodes((14, 16)) == 2 * 16


def _reference_ghosts(a, pad, periodic):
    out = a
    for axis, per in enumerate(periodic):
        width = [(0, 0)] * a.ndim
        width[axis] = (pad, pad)
        out = np.pad(out, width, mode="wrap" if per else "edge")
    return out


class TestLocalExchanger:
    @given(
        st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]),
        st.sampled_from(
            [(False, False), (True, False), (False, True), (True, True)]
        ),
        st.integers(1, 3),
        st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_exchange_matches_global_padding(
        self, blocks, periodic, pad, seed
    ):
        """After scrambling ghosts and exchanging, every subregion's
        padded array equals the slice of the globally padded array —
        including corners (two-phase axis propagation) and domain edges."""
        shape = (17, 13)
        d = Decomposition(shape, blocks, periodic=periodic)
        if any(blk.shape[i] < pad for blk in d for i in range(2)):
            return
        a = _field(shape, seed)
        subs = make_subregions(d, pad, {"a": a})
        for sub in subs:  # scramble every ghost value
            mask = np.ones(sub.padded_shape, dtype=bool)
            mask[sub.interior] = False
            sub.fields["a"][mask] = -999.0
        ex = LocalExchanger(d, subs)
        ex.exchange(["a"])
        ref = _reference_ghosts(a, pad, periodic)
        for sub in subs:
            sl = tuple(
                slice(l, h + 2 * pad)
                for l, h in zip(sub.block.lo, sub.block.hi)
            )
            np.testing.assert_array_equal(sub.fields["a"], ref[sl])

    def test_component_field_exchange(self):
        shape = (16, 12)
        d = Decomposition(shape, (2, 2))
        a = _field((4,) + shape)
        subs = make_subregions(d, 2, {"a": a})
        for sub in subs:
            sub.fields["a"][:, 0, :] = -1.0
        LocalExchanger(d, subs).exchange(["a"])
        # reference: pad the *spatial* axes only
        ref = np.pad(a, ((0, 0), (2, 2), (2, 2)), mode="edge")
        for sub in subs:
            sl = tuple(
                slice(l, h + 4) for l, h in zip(sub.block.lo, sub.block.hi)
            )
            np.testing.assert_array_equal(
                sub.fields["a"], ref[(slice(None),) + sl]
            )

    def test_hold_faces_left_untouched(self):
        shape = (16, 16)
        solid = np.zeros(shape, dtype=bool)
        solid[:8, :8] = True
        d = Decomposition(shape, (2, 2), solid=solid)
        a = _field(shape)
        subs = make_subregions(d, 2, {"a": a}, solid)
        sub = next(s for s in subs if s.block.index == (0, 1))
        before = sub.fields["a"].copy()
        LocalExchanger(d, subs).exchange(["a"])
        # ghosts toward the inactive block (low-y side) keep initial data
        np.testing.assert_array_equal(
            sub.fields["a"][:, :2], before[:, :2]
        )

    def test_mixed_pads_rejected(self):
        d = Decomposition((16, 16), (2, 1))
        a = _field((16, 16))
        subs = make_subregions(d, 2, {"a": a})
        subs[1] = make_subregions(d, 3, {"a": a})[1]
        with pytest.raises(ValueError):
            LocalExchanger(d, subs)

    def test_message_bytes_match_payload_counts(self):
        """3 values/node in 2D: a 2-block split of a 12-wide face moves
        12 * pad * values * 8 bytes per message (paper §6 accounting,
        modulo the strip width)."""
        d = Decomposition((20, 12), (2, 1))
        subs = make_subregions(d, 2, {"a": _field((20, 12))})
        ex = LocalExchanger(d, subs)
        per_nbr = ex.message_bytes(0, values_per_node=3)
        assert per_nbr == {1: 2 * (12 + 4) * 3 * 8}

    def test_3d_exchange_matches_reference(self):
        shape = (12, 10, 8)
        d = Decomposition(shape, (2, 1, 2))
        rng = np.random.default_rng(3)
        a = rng.random(shape)
        subs = make_subregions(d, 2, {"a": a})
        for sub in subs:
            mask = np.ones(sub.padded_shape, dtype=bool)
            mask[sub.interior] = False
            sub.fields["a"][mask] = -5.0
        LocalExchanger(d, subs).exchange(["a"])
        ref = _reference_ghosts(a, 2, (False, False, False))
        for sub in subs:
            sl = tuple(
                slice(l, h + 4) for l, h in zip(sub.block.lo, sub.block.hi)
            )
            np.testing.assert_array_equal(sub.fields["a"], ref[sl])

    @pytest.mark.parametrize("periodic", [(True, False, False),
                                          (False, True, True)])
    def test_staged_fills_keep_every_bit(self, periodic):
        """Self-wrapping periodic strips and replicated edges go through
        the exchanger's plane buffer: a ``(Q, ...)`` field with signed
        zeros and NaNs lands bit for bit on the padded reference."""
        shape = (7, 6, 5)
        a = _field((4,) + shape, seed=4) - 0.5
        a[a > 0.3] = -0.0
        a[0, 1, 2, 3] = np.nan
        d = Decomposition(shape, (1, 1, 1), periodic=periodic)
        subs = make_subregions(d, 3, {"a": a})
        mask = np.ones(subs[0].padded_shape, dtype=bool)
        mask[subs[0].interior] = False
        subs[0].fields["a"][:, mask] = 7.0
        LocalExchanger(d, subs).exchange(["a"])
        ref = np.stack([_reference_ghosts(c, 3, periodic) for c in a])
        assert subs[0].fields["a"].tobytes() == ref.tobytes()


class TestPlanProperties:
    """Structural invariants of exchange plans over random decompositions."""

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(
            [(False, False), (True, False), (False, True), (True, True)]
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_recv_ops_pair_up(self, jx, jy, periodic, pad):
        """Every recv op has a matching op on the neighbour: same axis,
        opposite side, pointing back — the wiring the transports rely
        on to route strips."""
        shape = (24, 24)
        d = Decomposition(shape, (jx, jy), periodic=periodic)
        if any(blk.shape[i] < pad for blk in d for i in range(2)):
            return
        plans = {
            blk.rank: build_plan(d, blk.rank, pad)
            for blk in d.active_blocks()
        }
        for rank, plan in plans.items():
            for op in plan.recv_ops():
                partner = {
                    (o.axis, o.side): o
                    for o in plans[op.neighbor_rank].ops
                }
                match = partner[(op.axis, -op.side)]
                assert match.kind == "recv"
                assert match.neighbor_rank == rank

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_every_face_has_exactly_one_op(self, jx, jy, pad):
        shape = (24, 24)
        d = Decomposition(shape, (jx, jy))
        if any(blk.shape[i] < pad for blk in d for i in range(2)):
            return
        for blk in d.active_blocks():
            plan = build_plan(d, blk.rank, pad)
            faces = {(op.axis, op.side) for op in plan.ops}
            assert faces == {(a, s) for a in range(2) for s in (-1, 1)}

    @given(st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_send_and_recv_strips_same_size(self, j, pad):
        """A sent strip must exactly fill the neighbour's ghost strip."""
        shape = (24, 18)
        d = Decomposition(shape, (j, 2))
        if any(blk.shape[i] < pad for blk in d for i in range(2)):
            return
        plans = {
            blk.rank: build_plan(d, blk.rank, pad)
            for blk in d.active_blocks()
        }
        for rank, plan in plans.items():
            blk = d.by_rank(rank)
            padded = tuple(n + 2 * pad for n in blk.shape)
            for op in plan.recv_ops():
                partner_blk = d.by_rank(op.neighbor_rank)
                partner_padded = tuple(
                    n + 2 * pad for n in partner_blk.shape
                )
                partner = {
                    (o.axis, o.side): o
                    for o in plans[op.neighbor_rank].ops
                }[(op.axis, -op.side)]
                assert op.src_slices == partner.send_slices
                recv_shape = tuple(
                    sl.indices(padded[i])[1] - sl.indices(padded[i])[0]
                    for i, sl in enumerate(op.recv_slices)
                )
                send_shape = tuple(
                    sl.indices(partner_padded[i])[1]
                    - sl.indices(partner_padded[i])[0]
                    for i, sl in enumerate(partner.send_slices)
                )
                assert recv_shape == send_shape


def _fig2_solid(shape):
    """One all-solid corner block (paper fig. 2)."""
    solid = np.zeros(shape, dtype=bool)
    solid[tuple(slice(0, n // 2) for n in shape)] = True
    return solid


#: name -> (grid shape, blocks, periodic, solid); uneven extents, so a
#: neighbour's send strip is not my own send strip shifted
GEOMETRIES = {
    "2d": ((25, 19), (3, 2), (False, False), None),
    "3d": ((13, 10, 9), (2, 1, 2), (False, False, False), None),
    "periodic_split": ((25, 19), (2, 3), (True, False), None),
    "periodic_spanned": ((25, 19), (1, 2), (True, True), None),
    "inactive_2d": ((24, 24), (2, 2), (False, True), _fig2_solid((24, 24))),
    "inactive_3d": ((12, 12, 12), (2, 2, 2), (False,) * 3,
                    _fig2_solid((12, 12, 12))),
}

#: the axis order of the passes: ascending, or the shortest
#: supersequence of every axis permutation when a block is inactive
SWEEPS = {
    (2, False): (0, 1),
    (2, True): (0, 1, 0),
    (3, False): (0, 1, 2),
    (3, True): (0, 1, 2, 0, 1, 2, 0),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
class TestPlanGeometry:
    """The plan fixes every strip and the pass order the transports
    walk; checked against the neighbours' own plans."""

    def _plans(self, name, pad=2):
        shape, blocks, periodic, solid = GEOMETRIES[name]
        d = Decomposition(shape, blocks, periodic=periodic, solid=solid)
        return d, {
            blk.rank: build_plan(d, blk.rank, pad)
            for blk in d.active_blocks()
        }

    def test_src_slices_are_the_neighbours_send_strip(self, name):
        _, plans = self._plans(name)
        n_recv = 0
        for rank, plan in plans.items():
            for op in plan.recv_ops():
                partner = {
                    (o.axis, o.side): o
                    for o in plans[op.neighbor_rank].ops
                }[(op.axis, -op.side)]
                assert partner.kind == "recv"
                assert partner.neighbor_rank == rank
                assert op.src_slices == partner.send_slices
                n_recv += 1
        assert n_recv > 0

    def test_passes_walk_each_op_once_in_sweep_order(self, name):
        d, plans = self._plans(name)
        extended = d.n_active < d.n_blocks
        assert extended == (GEOMETRIES[name][3] is not None)
        sweep = SWEEPS[(d.ndim, extended)]
        for plan in plans.values():
            assert len(plan.passes) == len(sweep)
            for axis, ops in zip(sweep, plan.passes):
                assert ops == tuple(o for o in plan.ops if o.axis == axis)
                assert [o.side for o in ops] == [-1, 1]
            walked = [op for ops in plan.passes for op in ops]
            assert {id(op) for op in walked} == {id(op) for op in plan.ops}
            assert len(walked) == 2 * len(sweep)
