"""Fault plans: seeded, serializable, deterministic."""

import pytest

from repro.chaos import KINDS, MESSAGE_KINDS, SCENARIOS, Fault, FaultPlan
from repro.chaos.plan import DUMP_KINDS, HOST_KINDS, PROCESS_KINDS, STATE_KINDS


class TestFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor_strike")

    def test_kind_sets_partition_the_universe(self):
        groups = (PROCESS_KINDS, MESSAGE_KINDS, STATE_KINDS, DUMP_KINDS,
                  HOST_KINDS)
        assert frozenset().union(*groups) == KINDS
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                assert not (a & b)

    def test_fault_id_distinguishes_kind_rank_step(self):
        ids = {
            Fault("kill", rank=0, step=5).fault_id,
            Fault("kill", rank=1, step=5).fault_id,
            Fault("kill", rank=0, step=6).fault_id,
            Fault("stop", rank=0, step=5).fault_id,
        }
        assert len(ids) == 4


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(seed=7, faults=(
            Fault("kill", rank=1, step=12),
            Fault("msg_truncate", rank=0, step=3, count=2, arg=16),
            Fault("load_spike", rank=1, at=0.5, load=2.5, seconds=30.0),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_nan_round_trip(self):
        plan = FaultPlan(seed=1, faults=(Fault("nan", rank=1, step=12),))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_is_stable(self):
        plan = FaultPlan.scenario("kill", 3, 2, 40, 10)
        assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()

    def test_empty_plan(self):
        assert FaultPlan.from_json("{}") == FaultPlan()


class TestViews:
    def test_for_rank_filters_rank_and_kind(self):
        plan = FaultPlan(faults=(
            Fault("kill", rank=0, step=5),
            Fault("msg_drop", rank=0, step=6),
            Fault("msg_drop", rank=1, step=6),
        ))
        assert plan.for_rank(0, MESSAGE_KINDS) == (
            Fault("msg_drop", rank=0, step=6),
        )
        assert plan.for_rank(1, PROCESS_KINDS) == ()

    def test_host_faults(self):
        spike = Fault("load_spike", rank=0, at=1.0, load=2.0, seconds=10.0)
        plan = FaultPlan(faults=(Fault("kill", step=3), spike))
        assert plan.host_faults() == (spike,)


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_deterministic_per_seed(self, name):
        a = FaultPlan.scenario(name, 5, 4, 60, 15)
        b = FaultPlan.scenario(name, 5, 4, 60, 15)
        assert a == b and a.faults

    def test_seeds_vary_the_plan(self):
        plans = {FaultPlan.scenario("kill", s, 4, 200, 20).to_json()
                 for s in range(8)}
        assert len(plans) > 1

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            FaultPlan.scenario("gremlins", 0, 2, 40, 10)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_faults_fire_after_first_checkpoint(self, name):
        steps, save_every = 40, 10
        plan = FaultPlan.scenario(name, 0, 2, steps, save_every)
        for f in plan.faults:
            if f.kind in HOST_KINDS:
                assert f.at > 0
            else:
                assert save_every < f.step < steps
            assert 0 <= f.rank < 2

    def test_corruption_pairs_bad_dump_with_crash(self):
        plan = FaultPlan.scenario("corruption", 1, 2, 40, 10)
        kinds = {f.kind for f in plan.faults}
        assert "kill" in kinds
        assert kinds & DUMP_KINDS


class TestGenerate:
    def test_deterministic(self):
        assert (FaultPlan.generate(9, 4, 50, save_every=10)
                == FaultPlan.generate(9, 4, 50, save_every=10))

    def test_respects_kind_menu(self):
        plan = FaultPlan.generate(2, 4, 50, n_faults=6,
                                  kinds=("msg_drop", "msg_dup"))
        assert {f.kind for f in plan.faults} <= {"msg_drop", "msg_dup"}

    def test_default_menu_never_draws_nan(self):
        """``nan`` aborts the run by design: random sweeps leave it out
        unless a menu names it."""
        for seed in range(20):
            plan = FaultPlan.generate(seed, 4, 50, n_faults=8)
            assert all(f.kind not in STATE_KINDS for f in plan.faults)
        named = FaultPlan.generate(0, 2, 50, n_faults=2, kinds=("nan",))
        assert {f.kind for f in named.faults} == {"nan"}

    def test_unknown_kind_in_menu(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.generate(0, 2, 10, kinds=("asteroid",))
