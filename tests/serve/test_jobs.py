"""The job state machine and the append-only history store."""

import json

import pytest

from repro._jsonl import LogDamaged
from repro.serve import (
    STATES,
    TERMINAL,
    TRANSITIONS,
    JobHistory,
    JobRecord,
)


def _rec(job_id="j000000-aaaaaaaa", **kw) -> JobRecord:
    return JobRecord(job_id=job_id, fingerprint="a" * 64, **kw)


class TestStateMachine:
    def test_happy_path(self):
        rec = _rec()
        assert rec.state == "queued"
        rec.advance("running")
        rec.advance("done")
        assert rec.terminal

    def test_retry_on_worker_death_path(self):
        rec = _rec()
        rec.advance("running")
        rec.advance("queued")       # the requeue after a worker death
        rec.advance("running")
        rec.advance("done")
        assert rec.terminal

    def test_terminal_states_are_closed(self):
        for terminal in TERMINAL:
            assert not TRANSITIONS[terminal]
            rec = _rec()
            rec.state = terminal
            for target in STATES:
                with pytest.raises(ValueError, match="illegal transition"):
                    rec.advance(target)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown job state"):
            _rec().advance("exploded")

    def test_queued_cannot_jump_to_done(self):
        with pytest.raises(ValueError, match="illegal transition"):
            _rec().advance("done")

    def test_dict_roundtrip(self):
        rec = _rec(priority=3, seq=7, retries=1, cached=True,
                   elapsed=1.5, steps=40)
        assert JobRecord.from_dict(rec.to_dict()) == rec


class TestHistory:
    def test_append_and_read(self, tmp_path):
        hist = JobHistory.for_dir(tmp_path)
        rec = _rec()
        hist.append("submitted", rec)
        rec.advance("running")
        hist.append("assigned", rec)
        events = hist.read()
        assert [e["event"] for e in events] == ["submitted", "assigned"]
        assert all("wall" in e for e in events)
        assert events[-1]["job"]["state"] == "running"

    def test_replay_last_event_wins(self, tmp_path):
        hist = JobHistory.for_dir(tmp_path)
        a, b = _rec("j000000-aaaaaaaa", seq=0), _rec("j000001-bbbbbbbb",
                                                    seq=1)
        hist.append("submitted", a)
        hist.append("submitted", b)
        a.advance("running")
        a.advance("done")
        hist.append("done", a)
        table = hist.replay()
        assert table["j000000-aaaaaaaa"].state == "done"
        assert table["j000001-bbbbbbbb"].state == "queued"

    def test_replay_tolerates_torn_final_line(self, tmp_path):
        hist = JobHistory.for_dir(tmp_path)
        hist.append("submitted", _rec())
        with open(hist.path, "a") as fh:
            fh.write('{"event": "assigned", "job": {"job_id"')  # torn
        table = hist.replay()
        assert table["j000000-aaaaaaaa"].state == "queued"

    def test_appends_after_a_torn_line_start_fresh(self, tmp_path):
        """A gateway restarted after a torn write appends its recovery
        events on fresh lines: nothing is lost and the next boot's
        replay does not see a damaged middle line."""
        hist = JobHistory.for_dir(tmp_path)
        hist.append("submitted", _rec())
        with open(hist.path, "a") as fh:
            fh.write('{"event": "assigned", "job": {"job_id"')  # torn
        hist.append("submitted", _rec("j000001-bbbbbbbb", seq=1))
        hist.append("submitted", _rec("j000002-cccccccc", seq=2))
        assert [e["job"]["job_id"] for e in hist.read()] == [
            "j000000-aaaaaaaa", "j000001-bbbbbbbb", "j000002-cccccccc",
        ]
        assert hist.compact()["events_after"] == 3

    def test_damaged_middle_line_is_loud(self, tmp_path):
        hist = JobHistory.for_dir(tmp_path)
        hist.append("submitted", _rec())
        with open(hist.path, "a") as fh:
            fh.write('{"event": "assi\x00gned"\n')  # damaged, not last
        hist.append("submitted", _rec("j000001-bbbbbbbb"))
        with pytest.raises(LogDamaged, match="jobs.jsonl, line 2") as err:
            hist.read()
        assert err.value.path == hist.path and err.value.lineno == 2
        with pytest.raises(LogDamaged):
            hist.replay()

    def test_replay_refuses_incompatible_events(self, tmp_path):
        """A parseable event that is not a job record this version can
        rebuild is damage: replay names it instead of dropping the job."""
        hist = JobHistory.for_dir(tmp_path)
        hist.append("submitted", _rec())
        with open(hist.path, "a") as fh:
            fh.write(json.dumps({
                "event": "future",
                "job": {"job_id": "jX", "no_such_field": 1},
            }) + "\n")
        hist.append("submitted", _rec("j000001-bbbbbbbb", seq=1))
        with pytest.raises(LogDamaged, match="jobs.jsonl, line 2") as err:
            hist.replay()
        assert err.value.lineno == 2
        # an event without a job record at all is refused the same way
        hist.path.write_text(json.dumps({"event": "submitted"}) + "\n")
        with pytest.raises(LogDamaged, match="line 1"):
            hist.replay()

    @pytest.mark.parametrize("damage", [
        {"state": "bogus"}, {"seq": "x"}, {"job_id": 7}, {"cached": 1},
        {"retries": True},
    ])
    def test_replay_refuses_a_mistyped_or_unknown_state(self, tmp_path,
                                                        damage):
        """A bogus state would leave a job queued forever and a string
        ``seq`` would crash the scheduler's replay: both are damage."""
        hist = JobHistory.for_dir(tmp_path)
        hist.append("submitted", _rec())
        with open(hist.path, "a") as fh:
            fh.write(json.dumps({
                "event": "submitted",
                "job": {**_rec("j000001-bbbbbbbb").to_dict(), **damage},
            }) + "\n")
        hist.append("submitted", _rec("j000002-cccccccc"))
        with pytest.raises(LogDamaged, match="line 2") as err:
            hist.replay()
        assert err.value.lineno == 2

    def test_missing_file_reads_empty(self, tmp_path):
        hist = JobHistory(tmp_path / "nope.jsonl")
        assert hist.read() == []
        assert hist.replay() == {}
