"""The load estimator: EMA smoothing, load scaling, pace tracking."""

import pytest

from repro.balance import LoadEstimator


class TestSpeeds:
    def test_uniform_before_any_signal(self):
        est = LoadEstimator([100, 100, 100])
        speeds = est.speeds()
        assert len(speeds) == 3
        assert len(set(speeds)) == 1

    def test_declared_load_divides_speed(self):
        """§5 machine model: speed = base / (1 + load)."""
        est = LoadEstimator([100, 100])
        est.observe_load(0, 2.0)
        s = est.speeds()
        assert s[0] == pytest.approx(s[1] / 3.0)

    def test_measured_compute_time_sets_rate(self):
        est = LoadEstimator([100, 200], alpha=1.0)
        # rank 0: 0.01 s for 100 nodes; rank 1: 0.01 s for 200 nodes
        est.observe_heartbeat(0, step=5, wall=1.0, comp_seconds=0.01)
        est.observe_heartbeat(1, step=5, wall=1.0, comp_seconds=0.01)
        s = est.speeds()
        assert s[1] == pytest.approx(2 * s[0])
        assert s[0] == pytest.approx(100 / 0.01)

    def test_signals_compose_multiplicatively(self):
        est = LoadEstimator([100, 100], alpha=1.0)
        for r in (0, 1):
            est.observe_heartbeat(r, step=1, wall=0.0, comp_seconds=0.01)
        est.observe_load(1, 1.0)
        s = est.speeds()
        assert s[1] == pytest.approx(s[0] / 2.0)

    def test_unmeasured_rank_borrows_mean(self):
        est = LoadEstimator([100, 100], alpha=1.0)
        est.observe_heartbeat(0, step=1, wall=0.0, comp_seconds=0.02)
        s = est.speeds()
        assert s[1] == pytest.approx(s[0])

    def test_ema_smooths_samples(self):
        est = LoadEstimator([100], alpha=0.5)
        est.observe_heartbeat(0, 1, 0.0, comp_seconds=0.01)
        est.observe_heartbeat(0, 2, 1.0, comp_seconds=0.02)
        # EMA of per-node seconds: 0.5*2e-4 + 0.5*1e-4
        assert est.speeds()[0] == pytest.approx(1.0 / 1.5e-4)

    def test_set_nodes_keeps_per_node_rates(self):
        est = LoadEstimator([100, 100], alpha=1.0)
        est.observe_heartbeat(0, 1, 0.0, comp_seconds=0.01)
        before = est.speeds()[0]
        est.set_nodes([50, 150])
        assert est.speeds()[0] == pytest.approx(before)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            LoadEstimator([10], alpha=0.0)
        with pytest.raises(ValueError):
            LoadEstimator([10], alpha=1.5)


class TestPaceAndProgress:
    def test_pace_from_consecutive_heartbeats(self):
        est = LoadEstimator([10, 10], alpha=1.0)
        est.observe_heartbeat(0, 10, 100.0)
        est.observe_heartbeat(0, 20, 101.0)   # 0.1 s/step
        est.observe_heartbeat(1, 10, 100.0)
        est.observe_heartbeat(1, 20, 102.0)   # 0.2 s/step - slowest
        assert est.seconds_per_step() == pytest.approx(0.2)

    def test_pace_none_before_two_beats(self):
        est = LoadEstimator([10])
        assert est.seconds_per_step() is None
        est.observe_heartbeat(0, 1, 0.0)
        assert est.seconds_per_step() is None

    def test_min_step_requires_all_ranks(self):
        est = LoadEstimator([10, 10])
        assert est.min_step() is None
        est.observe_heartbeat(0, 7, 0.0)
        assert est.min_step() is None
        est.observe_heartbeat(1, 3, 0.0)
        assert est.min_step() == 3

    def test_measured_flag(self):
        est = LoadEstimator([10, 10])
        assert not est.measured()
        est.observe_heartbeat(0, 1, 0.0, comp_seconds=0.01)
        assert not est.measured()
        est.observe_heartbeat(1, 1, 0.0, comp_seconds=0.01)
        assert est.measured()

