"""Shape assertions over the chaos/recovery ledger of the run journal.

:func:`repro.chaos.check_recovery_ledger` audits a chaos run from its
journal alone: process faults must be answered by recovery records,
checkpoint faults must be answered once a restart consumed them,
message/host faults are self-healing.  These tests drive the checker
with synthetic journals; the live end-to-end path is covered by
``repro chaos`` runs in test_runner_e2e.
"""

from pathlib import Path

import pytest

from repro._jsonl import LogDamaged
from repro.chaos import check_recovery_ledger
from repro.distrib.journal import MONITOR, Journal, read_journal


def _write_journal(workdir: Path, who, kinds: list[str]) -> Path:
    journal = Journal(workdir, who)
    for step, kind in enumerate(kinds):
        journal.write(kind, f"{kind} at step {step}", step)
    return journal.path


def test_kill_with_restart_is_clean(tmp_path):
    _write_journal(tmp_path, 0, ["chaos:kill"])
    _write_journal(tmp_path, 0, ["recover:restart"])  # next incarnation
    _write_journal(tmp_path, MONITOR, ["recover:ckpt_restart"])
    assert check_recovery_ledger(tmp_path, restarts=1) == []


def test_unanswered_kill_is_a_violation(tmp_path):
    _write_journal(tmp_path, 0, ["chaos:kill"])
    gaps = check_recovery_ledger(tmp_path, restarts=0)
    assert len(gaps) == 1 and "kill" in gaps[0]


def test_two_kills_need_two_recoveries(tmp_path):
    _write_journal(tmp_path, 0, ["chaos:kill", "chaos:stop"])
    _write_journal(tmp_path, MONITOR, ["recover:ckpt_restart"])
    gaps = check_recovery_ledger(tmp_path, restarts=1)
    assert gaps and "2 process fault" in gaps[0]


def test_message_faults_are_self_healing(tmp_path):
    _write_journal(tmp_path, 1, ["chaos:msg_drop", "chaos:msg_dup"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_host_faults_are_self_healing(tmp_path):
    _write_journal(tmp_path, MONITOR, ["chaos:load_spike"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_dump_fault_without_restart_needs_nothing(tmp_path):
    """A corrupted checkpoint nobody restored from owes no recovery."""
    _write_journal(tmp_path, 0, ["chaos:dump_corrupt"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_dump_fault_with_restart_needs_recovery(tmp_path):
    _write_journal(tmp_path, 0, ["chaos:dump_corrupt"])
    gaps = check_recovery_ledger(tmp_path, restarts=1)
    assert gaps and "checkpoint fault" in gaps[0]
    _write_journal(tmp_path, MONITOR, ["recover:ckpt_fallback"])
    assert check_recovery_ledger(tmp_path, restarts=1) == []


def test_missing_logs_dir_is_empty_ledger(tmp_path):
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_torn_final_line_is_tolerated(tmp_path):
    """A killed rank can leave a half-written last line; the checker
    must parse what is intact rather than crash."""
    path = _write_journal(tmp_path, 0, ["chaos:kill"])
    _write_journal(tmp_path, MONITOR, ["recover:ckpt_restart"])
    with open(path, "a") as fh:
        fh.write('{"t": 1.0, "who": 0, "step": 3, "kind": "chaos:st')
    assert [r["kind"] for r in read_journal(tmp_path)] == [
        "chaos:kill", "recover:ckpt_restart"]
    assert check_recovery_ledger(tmp_path, restarts=1) == []


def test_damaged_middle_line_is_loud(tmp_path):
    """Only the last line can be torn by a crash; damage anywhere else
    is refused with the file and line, not skipped."""
    path = _write_journal(tmp_path, 0,
                          ["note", "chaos:kill", "recover:restart"])
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:20]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogDamaged, match="rank0000.jsonl, line 2"):
        check_recovery_ledger(tmp_path, restarts=1)


def test_nan_fault_owes_no_recovery(tmp_path):
    """An injected NaN ends in a diagnosed abort, not a restart."""
    _write_journal(tmp_path, 1, ["chaos:nan"])
    assert check_recovery_ledger(tmp_path, restarts=0) == []


def test_non_ledger_kinds_are_ignored(tmp_path):
    """Notes, a fatal traceback and a stop answer no fault."""
    _write_journal(tmp_path, 0, ["note", "fatal", "chaos:kill"])
    _write_journal(tmp_path, MONITOR, ["stop"])
    gaps = check_recovery_ledger(tmp_path, restarts=1)
    assert gaps and "only 0 recover:" in gaps[0]
    _write_journal(tmp_path, 0, ["recover:restart"])
    assert check_recovery_ledger(tmp_path, restarts=1) == []
