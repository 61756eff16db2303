"""The run journal: one JSON-lines record per event, per writer.

Unit checks of :class:`repro.distrib.journal.Journal` and
:func:`repro.distrib.journal.read_journal`, and one live run that
pins what the journal replaced: the monitor no longer traces itself,
so a traced run under a fault plan has exactly one trace lane per
rank.
"""

import json

import numpy as np
import pytest

import repro
from repro._jsonl import LogDamaged
from repro.chaos import Fault, FaultPlan
from repro.distrib import ProblemSpec, RunSettings, initial_fields
from repro.distrib.journal import MONITOR, Journal, read_journal


def test_records_read_back_in_wall_order(tmp_path, monkeypatch):
    import repro.distrib.journal as journal_mod

    clock = iter([3.0, 1.0, 2.0])
    monkeypatch.setattr(journal_mod.time, "time", lambda: next(clock))
    Journal(tmp_path, MONITOR).write("note", "third")
    Journal(tmp_path, 1).write("chaos:kill", "first", 7)
    Journal(tmp_path, 0).write("recover:restart", "second", 5)
    assert read_journal(tmp_path) == [
        {"t": 1.0, "who": 1, "step": 7, "kind": "chaos:kill",
         "msg": "first"},
        {"t": 2.0, "who": 0, "step": 5, "kind": "recover:restart",
         "msg": "second"},
        {"t": 3.0, "who": MONITOR, "step": -1, "kind": "note",
         "msg": "third"},
    ]
    assert sorted(p.name for p in (tmp_path / "logs").iterdir()) == [
        "monitor.jsonl", "rank0000.jsonl", "rank0001.jsonl"]


def test_no_logs_dir_is_an_empty_journal(tmp_path):
    assert read_journal(tmp_path) == []


def test_a_killed_writer_loses_only_its_torn_line(tmp_path):
    journal = Journal(tmp_path, 0)
    journal.write("note", "before the kill")
    with open(journal.path, "a") as fh:
        fh.write('{"t": 1.0, "who": 0, "st')
    assert [r["msg"] for r in read_journal(tmp_path)] == ["before the kill"]
    # the next incarnation's first append cuts the torn tail off
    journal.write("recover:restart", "recovered")
    assert [r["msg"] for r in read_journal(tmp_path)] == [
        "before the kill", "recovered"]


@pytest.mark.parametrize("line", [
    "[1, 2]",
    json.dumps({"t": 1.0, "who": 0, "step": 0, "kind": "note"}),
    json.dumps({"t": 1.0, "who": 0, "step": "0", "kind": "note",
                "msg": ""}),
    json.dumps({"t": 1.0, "who": 0, "step": True, "kind": "note",
                "msg": ""}),
    json.dumps({"t": 1.0, "who": None, "step": 0, "kind": "note",
                "msg": ""}),
])
def test_a_line_that_is_not_a_record_is_damage(tmp_path, line):
    journal = Journal(tmp_path, MONITOR)
    journal.write("note", "fine")
    with open(journal.path, "a") as fh:
        fh.write(line + "\n")
    journal.write("note", "also fine")
    with pytest.raises(LogDamaged, match="monitor.jsonl, line 2"):
        read_journal(tmp_path)


@pytest.mark.slow
def test_traced_faulted_run_has_one_trace_lane_per_rank(tmp_path):
    """A traced run under a fault plan is summarized over its ranks
    only: the fault and its ledger record live in the journal, and the
    monitor writes no trace lane of its own."""
    spec = ProblemSpec(
        method="lb", grid_shape=(32, 24), blocks=(2, 1),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )
    fields = initial_fields(spec, "rest")
    plan = FaultPlan(faults=(Fault("msg_dup", rank=0, step=3),))
    result = repro.run(
        spec, "distributed",
        RunSettings(steps=8, trace=True, fault_plan=plan.to_json(),
                    run_timeout=120),
        fields=fields, workdir=tmp_path / "run",
    )
    assert sorted(result.timings) == [0, 1]
    assert result.trace_summary.n_ranks == 2
    assert not (tmp_path / "run" / "trace" / "trace-mon.jsonl").exists()
    fired = [rec for rec in read_journal(tmp_path / "run")
             if rec["kind"] == "chaos:msg_dup"]
    assert [(rec["who"], rec["step"]) for rec in fired] == [(0, 3)]
    serial = repro.run(spec, "serial", steps=8, fields=fields).fields
    for name, ref in serial.items():
        assert np.array_equal(result.fields[name], ref), name
