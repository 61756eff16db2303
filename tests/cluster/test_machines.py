"""Machine models, load traces and the §7 calibration table."""

import pytest

from repro.cluster import (
    LoadTrace,
    RELATIVE_SPEED,
    SimHost,
    U_REF_NODES_PER_S,
    VALUES_PER_NODE,
    MESSAGES_PER_STEP,
    bytes_per_boundary_node,
    node_speed,
    paper_sim_cluster,
    paper_ucalc_vcom_ratio,
)


class TestCalibrationTable:
    def test_reference_speed(self):
        """§7: relative speed 1.0 = 39132 fluid nodes per second."""
        assert U_REF_NODES_PER_S == 39132.0
        assert node_speed("lb", 2, "715/50") == 39132.0

    def test_relative_speed_table(self):
        """The full §7 table."""
        assert RELATIVE_SPEED[("lb", 2)] == {
            "715/50": 1.00, "710": 0.84, "720": 0.86,
        }
        assert RELATIVE_SPEED[("lb", 3)]["715/50"] == 0.51
        assert RELATIVE_SPEED[("fd", 2)]["715/50"] == 1.24
        assert RELATIVE_SPEED[("fd", 3)]["720"] == 0.94

    def test_host_node_speed_measures_this_host(self):
        """The same nodes/s measurement, taken on the running host."""
        from repro.cluster.calibration import host_node_speed

        assert host_node_speed("lb", 2, side=16, steps=2, repeats=1) > 0
        with pytest.raises(ValueError, match="unknown method"):
            host_node_speed("spectral", 2)

    def test_fd_faster_than_lb_per_step(self):
        """§7: FD computes about twice as fast as LB per step in 3D,
        which *hurts* its efficiency (T_com/T_calc grows)."""
        assert node_speed("fd", 3) / node_speed("lb", 3) == pytest.approx(
            1.0 / 0.51, rel=1e-12
        )

    def test_payload_counts_match_section6(self):
        assert VALUES_PER_NODE[("fd", 2)] == 3
        assert VALUES_PER_NODE[("lb", 2)] == 3
        assert VALUES_PER_NODE[("fd", 3)] == 4
        assert VALUES_PER_NODE[("lb", 3)] == 5
        assert bytes_per_boundary_node("lb", 3) == 40

    def test_message_counts(self):
        assert MESSAGES_PER_STEP == {"fd": 2, "lb": 1}

    def test_fitted_ratio(self):
        assert paper_ucalc_vcom_ratio() == pytest.approx(2 / 3)


class TestLoadTrace:
    def test_idle_by_default(self):
        t = LoadTrace()
        assert t.load_at(0.0) == 0.0
        assert t.load_at(1e6) == 0.0

    def test_piecewise(self):
        t = LoadTrace(points=((10.0, 1.0), (20.0, 0.0)))
        assert t.load_at(5.0) == 0.0
        assert t.load_at(10.0) == 1.0
        assert t.load_at(15.0) == 1.0
        assert t.load_at(25.0) == 0.0

    def test_busy_from(self):
        t = LoadTrace.busy_from(100.0, load=2.0)
        assert t.load_at(99.9) == 0.0
        assert t.load_at(100.1) == 2.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace(points=((5.0, 1.0), (1.0, 0.0)))

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace(points=((1.0, -0.5),))


class TestSimHost:
    def test_speed_of_idle_host(self):
        h = SimHost("a", "715/50")
        assert h.speed("lb", 2, 0.0) == 39132.0

    def test_competing_load_halves_speed(self):
        """A second full-time process: the niced parallel subprocess
        gets the leftover cycles."""
        h = SimHost("a", "715/50", LoadTrace.busy_from(0.0, 1.0))
        assert h.speed("lb", 2, 1.0) == pytest.approx(39132.0 / 2.0)

    def test_slower_models(self):
        h = SimHost("a", "710")
        assert h.speed("lb", 2, 0.0) == pytest.approx(0.84 * 39132.0)


class TestPaperSimCluster:
    def test_composition_and_order(self):
        hosts = paper_sim_cluster()
        assert len(hosts) == 25
        assert [h.model for h in hosts[:16]] == ["715/50"] * 16
        assert [h.model for h in hosts[16:22]] == ["720"] * 6
        assert [h.model for h in hosts[22:]] == ["710"] * 3

    def test_traces_injected(self):
        hosts = paper_sim_cluster(
            {"hp715-03": LoadTrace.busy_from(60.0)}
        )
        busy = next(h for h in hosts if h.name == "hp715-03")
        assert busy.load_at(61.0) == 2.0
