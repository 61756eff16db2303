"""Injectors: fired-once markers, frame filtering, dump corruption."""

import numpy as np
import pytest

from repro.chaos import (
    NULL_INJECTOR,
    ChannelFaultInjector,
    Fault,
    FiredMarkers,
    WorkerFaults,
    corrupt_dump,
)
from repro.core import Decomposition, make_subregions
from repro.distrib import dump_path, load_dump, save_dump
from repro.distrib.dumpfile import DumpCorruption, verify_dump


def _frame(to=1, payload=b"x" * 32, step=10):
    return (to, payload, step, 0, 0, 0)


def _injector(tmp_path, *faults):
    return ChannelFaultInjector(faults, FiredMarkers(tmp_path / "chaos"))


class TestNullInjector:
    def test_disabled(self):
        assert NULL_INJECTOR.enabled is False


class TestFiredMarkers:
    def test_claim_is_at_most_once(self, tmp_path):
        markers = FiredMarkers(tmp_path)
        fault = Fault("kill", rank=0, step=5)
        assert markers.claim(fault) is True
        assert markers.claim(fault) is False
        assert (tmp_path / f"fired_{fault.fault_id}").exists()

    def test_markers_survive_a_new_incarnation(self, tmp_path):
        fault = Fault("msg_drop", rank=1, step=3)
        assert FiredMarkers(tmp_path).claim(fault)
        # a restarted worker builds a fresh FiredMarkers on the same dir
        assert not FiredMarkers(tmp_path).claim(fault)


class TestFilterSend:
    def test_no_fault_passes_through(self, tmp_path):
        inj = _injector(tmp_path)
        frames, breaks = inj.filter_send(_frame())
        assert frames == [_frame()] and breaks == ()

    def test_drop_swallows_the_frame(self, tmp_path):
        inj = _injector(tmp_path, Fault("msg_drop", rank=0, step=10))
        frames, breaks = inj.filter_send(_frame(step=10))
        assert frames == [] and breaks == ()
        # fault consumed: the next frame sails through
        assert inj.filter_send(_frame(step=11))[0] == [_frame(step=11)]

    def test_dup_sends_twice(self, tmp_path):
        inj = _injector(tmp_path, Fault("msg_dup", rank=0, step=10))
        frames, _ = inj.filter_send(_frame(step=10))
        assert frames == [_frame(step=10)] * 2

    def test_delay_holds_until_next_send(self, tmp_path):
        inj = _injector(tmp_path, Fault("msg_delay", rank=0, step=10))
        held = _frame(step=10)
        assert inj.filter_send(held)[0] == []
        nxt = _frame(step=11)
        assert inj.filter_send(nxt)[0] == [held, nxt]

    def test_truncate_cuts_payload(self, tmp_path):
        inj = _injector(
            tmp_path, Fault("msg_truncate", rank=0, step=10, arg=8)
        )
        frames, _ = inj.filter_send(_frame(payload=b"y" * 32, step=10))
        (out,) = frames
        assert out[1] == b"y" * 24
        assert out[2:] == _frame(step=10)[2:]

    def test_conn_break_names_the_peer(self, tmp_path):
        inj = _injector(tmp_path, Fault("conn_break", rank=0, step=10))
        frames, breaks = inj.filter_send(_frame(to=3, step=10))
        assert frames == [_frame(to=3, step=10)]
        assert breaks == (3,)

    def test_count_spans_multiple_frames(self, tmp_path):
        inj = _injector(tmp_path,
                        Fault("msg_drop", rank=0, step=10, count=2))
        assert inj.filter_send(_frame(step=10))[0] == []
        assert inj.filter_send(_frame(step=10))[0] == []
        assert inj.filter_send(_frame(step=10))[0] == [_frame(step=10)]

    def test_fault_waits_for_its_step(self, tmp_path):
        inj = _injector(tmp_path, Fault("msg_drop", rank=0, step=10))
        assert inj.filter_send(_frame(step=9))[0] == [_frame(step=9)]
        assert inj.filter_send(_frame(step=10))[0] == []

    def test_fired_marker_retires_fault_across_incarnations(self, tmp_path):
        fault = Fault("msg_drop", rank=0, step=10)
        journal = []
        first = ChannelFaultInjector(
            [fault], FiredMarkers(tmp_path / "chaos"),
            log=lambda msg, kind: journal.append(kind))
        assert first.filter_send(_frame(step=10))[0] == []
        assert journal == ["chaos:msg_drop"]
        # the replayed incarnation sees the marker and never re-fires
        second = ChannelFaultInjector(
            [fault], FiredMarkers(tmp_path / "chaos"),
            log=lambda msg, kind: journal.append(kind))
        assert second.filter_send(_frame(step=10))[0] == [_frame(step=10)]
        assert journal == ["chaos:msg_drop"]


def _dump(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    shape = (20, 16)
    fields = {"rho": rng.random(shape), "f": rng.random((9,) + shape)}
    d = Decomposition(shape, (2, 2), solid=None)
    sub = make_subregions(d, 3, fields, rng.random(shape) < 0.1)[0]
    path = dump_path(tmp_path, 0, tag="ckpt000000010")
    save_dump(sub, path)
    return path


class TestWorkerFaults:
    def test_nan_poisons_one_interior_rho_value_once(self, tmp_path):
        rng = np.random.default_rng(0)
        shape = (20, 16)
        fields = {"rho": rng.random(shape), "f": rng.random((9,) + shape)}
        d = Decomposition(shape, (1, 1), solid=None)
        sub = make_subregions(d, 3, fields, None)[0]
        faults = WorkerFaults(
            (Fault("nan", rank=0, step=4),), FiredMarkers(tmp_path)
        )
        sub.step = 3
        faults.at_step(sub)
        assert np.isfinite(sub.fields["rho"]).all()
        sub.step = 4
        faults.at_step(sub)
        assert np.isnan(sub.interior_view("rho")).sum() == 1
        assert np.isfinite(sub.fields["f"]).all()
        # a restarted incarnation replaying step 4 does not fire again
        sub.interior_view("rho")[...] = 1.0
        WorkerFaults(
            (Fault("nan", rank=0, step=4),), FiredMarkers(tmp_path)
        ).at_step(sub)
        assert np.isfinite(sub.fields["rho"]).all()


class TestDumpCorruption:
    def test_verify_accepts_clean_dump(self, tmp_path):
        verify_dump(_dump(tmp_path))

    @pytest.mark.parametrize("truncate", (False, True))
    def test_corrupted_dump_refused(self, tmp_path, truncate):
        path = _dump(tmp_path)
        corrupt_dump(path, truncate=truncate)
        with pytest.raises(DumpCorruption):
            load_dump(path)
        with pytest.raises(DumpCorruption):
            verify_dump(path)

    def test_missing_dump_refused(self, tmp_path):
        with pytest.raises(DumpCorruption):
            verify_dump(tmp_path / "nope.npz")
