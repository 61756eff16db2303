"""Shape assertions over the chaos/recovery span ledger.

:func:`repro.chaos.check_recovery_ledger` audits a traced chaos run
from its span streams alone: process faults must be answered by
recovery spans, checkpoint faults must be answered once a restart
consumed them, message/host faults are self-healing.  These tests
drive the checker with synthetic trace streams; the live end-to-end
path is covered by ``repro chaos`` runs in test_runner_e2e.
"""

import json
from pathlib import Path

import pytest

from repro._jsonl import LogDamaged
from repro.chaos import check_recovery_ledger
from repro.chaos.runner import _ledger_spans


def _write_stream(trace_dir: Path, rank: str, names: list[str]) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"type": "meta", "rank": rank})]
    for i, name in enumerate(names):
        lines.append(json.dumps({
            "type": "span", "name": name, "cat": "chaos",
            "ts": float(i), "dur": 0.0, "step": i, "tid": 0,
        }))
    (trace_dir / f"trace-{rank}.jsonl").write_text("\n".join(lines) + "\n")


def test_kill_with_restart_is_clean(tmp_path):
    _write_stream(tmp_path / "trace", "0000", ["chaos:kill"])
    _write_stream(tmp_path / "trace", "0000.g1", ["recover:restart"])
    _write_stream(tmp_path / "trace", "mon", ["recover:ckpt_restart"])
    assert check_recovery_ledger(tmp_path, restarts=1) == []


def test_unanswered_kill_is_a_violation(tmp_path):
    _write_stream(tmp_path / "trace", "0000", ["chaos:kill"])
    gaps = check_recovery_ledger(tmp_path, restarts=0)
    assert len(gaps) == 1 and "kill" in gaps[0]


def test_two_kills_need_two_recoveries(tmp_path):
    _write_stream(tmp_path / "trace", "0000",
                  ["chaos:kill", "chaos:stop"])
    _write_stream(tmp_path / "trace", "mon", ["recover:ckpt_restart"])
    gaps = check_recovery_ledger(tmp_path, restarts=1)
    assert gaps and "2 process fault" in gaps[0]


def test_message_faults_are_self_healing(tmp_path):
    _write_stream(tmp_path / "trace", "0001",
                  ["chaos:msg_drop", "chaos:msg_dup"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_host_faults_are_self_healing(tmp_path):
    _write_stream(tmp_path / "trace", "mon", ["chaos:load_spike"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_dump_fault_without_restart_needs_nothing(tmp_path):
    """A corrupted checkpoint nobody restored from owes no recovery."""
    _write_stream(tmp_path / "trace", "0000", ["chaos:dump_corrupt"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_dump_fault_with_restart_needs_recovery(tmp_path):
    _write_stream(tmp_path / "trace", "0000", ["chaos:dump_corrupt"])
    gaps = check_recovery_ledger(tmp_path, restarts=1)
    assert gaps and "checkpoint fault" in gaps[0]
    _write_stream(tmp_path / "trace", "mon", ["recover:ckpt_fallback"])
    assert check_recovery_ledger(tmp_path, restarts=1) == []


def test_missing_trace_dir_is_empty_ledger(tmp_path):
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_torn_final_line_is_tolerated(tmp_path):
    """A killed rank can leave a half-written last line; the checker
    must parse what is intact rather than crash."""
    trace = tmp_path / "trace"
    _write_stream(trace, "0000", ["chaos:kill"])
    _write_stream(trace, "mon", ["recover:ckpt_restart"])
    with open(trace / "trace-0000.jsonl", "a") as fh:
        fh.write('{"type": "span", "name": "chaos:st')  # torn write
    spans = _ledger_spans(tmp_path)
    assert ("chaos", "kill") in spans
    assert check_recovery_ledger(tmp_path, restarts=1) == []


def test_damaged_middle_line_is_loud(tmp_path):
    """Only the last line can be torn by a crash; damage anywhere else
    is refused with the file and line, not skipped."""
    trace = tmp_path / "trace"
    _write_stream(trace, "0000", ["chaos:kill", "recover:restart"])
    path = trace / "trace-0000.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:20]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogDamaged, match="trace-0000.jsonl, line 2"):
        _ledger_spans(tmp_path)


def test_nan_fault_owes_no_recovery(tmp_path):
    """An injected NaN ends in a diagnosed abort, not a restart."""
    _write_stream(tmp_path / "trace", "0001", ["chaos:nan"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_non_ledger_spans_are_ignored(tmp_path):
    _write_stream(tmp_path / "trace", "0000",
                  ["compute:0", "exchange:0", "recover:restart",
                   "chaos:kill"])
    spans = _ledger_spans(tmp_path)
    assert spans == [("recover", "restart"), ("chaos", "kill")]
    assert check_recovery_ledger(tmp_path, restarts=1) == []
