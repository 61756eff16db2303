"""Job-history garbage collection: ``jobs.jsonl`` compaction.

The history file is append-only (one line per state transition), so a
long-lived gateway grows it without bound; compaction rewrites it down
to the last event per job without changing what ``replay()`` rebuilds.
"""

import json

import pytest

from repro._jsonl import LogDamaged
from repro.serve.jobs import JobHistory, JobRecord


def _fill(history: JobHistory, n_jobs: int, events_per_job: int = 4):
    for i in range(n_jobs):
        rec = JobRecord(job_id=f"j{i:06d}-deadbeef", fingerprint="f" * 64,
                        seq=i)
        history.append("submitted", rec)
        for _ in range(events_per_job - 2):
            rec.advance("running")
            history.append("assigned", rec)
            rec.state = "queued"  # force extra transitions for bulk
        rec.state = "running"
        rec.advance("done")
        history.append("done", rec)


def _fill_three_lines_with_a_bad_byte_in_line_2(history: JobHistory):
    for i in range(3):
        history.append("submitted", JobRecord(
            job_id=f"j{i:06d}-deadbeef", fingerprint="f" * 64, seq=i))
    lines = history.path.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xff" + lines[1]
    history.path.write_bytes(b"".join(lines))


class TestCompact:
    def test_replay_is_unchanged(self, tmp_path):
        history = JobHistory(tmp_path / "jobs.jsonl")
        _fill(history, 7)
        before = history.replay()
        stats = history.compact()
        after = history.replay()
        assert after == before
        assert stats["events_after"] == 7
        assert stats["events_before"] > stats["events_after"]
        assert stats["bytes_after"] < stats["bytes_before"]
        # one line per job survives
        lines = history.path.read_text().splitlines()
        assert len(lines) == 7

    def test_idempotent(self, tmp_path):
        history = JobHistory(tmp_path / "jobs.jsonl")
        _fill(history, 3)
        history.compact()
        text = history.path.read_text()
        stats = history.compact()
        assert history.path.read_text() == text
        assert stats["events_before"] == stats["events_after"] == 3

    def test_drops_torn_final_line(self, tmp_path):
        history = JobHistory(tmp_path / "jobs.jsonl")
        _fill(history, 2)
        with open(history.path, "a") as fh:
            fh.write('{"event": "done", "job": {"job_id"')  # torn
        history.compact()
        assert len(history.replay()) == 2
        for line in history.path.read_text().splitlines():
            json.loads(line)

    def test_damaged_middle_line_is_loud_and_kept(self, tmp_path):
        history = JobHistory(tmp_path / "jobs.jsonl")
        _fill(history, 1)
        with open(history.path, "a") as fh:
            fh.write("not json\n")
        _fill(history, 1)
        text = history.path.read_text()
        with pytest.raises(LogDamaged, match="line 5"):
            history.compact()
        assert history.path.read_text() == text

    def test_non_utf8_byte_is_damage_and_kept(self, tmp_path):
        """A byte that is not UTF-8 is refused like any damaged line,
        not as a codec error."""
        history = JobHistory(tmp_path / "jobs.jsonl")
        _fill_three_lines_with_a_bad_byte_in_line_2(history)
        raw = history.path.read_bytes()
        with pytest.raises(LogDamaged, match="jobs.jsonl, line 2"):
            history.compact()
        assert history.path.read_bytes() == raw

    def test_missing_file_is_a_noop(self, tmp_path):
        history = JobHistory(tmp_path / "jobs.jsonl")
        stats = history.compact()
        assert stats["events_before"] == 0
        assert not history.path.exists()

    def test_keeps_chronological_order(self, tmp_path):
        """Survivors stay ordered by their last event, so timeline
        readers (repro top) see history in wall order."""
        history = JobHistory(tmp_path / "jobs.jsonl")
        a = JobRecord(job_id="j000000-aaaaaaaa", fingerprint="a" * 64,
                      seq=0)
        b = JobRecord(job_id="j000001-bbbbbbbb", fingerprint="b" * 64,
                      seq=1)
        history.append("submitted", a)
        history.append("submitted", b)
        b.advance("running")
        history.append("assigned", b)
        a.advance("running")
        history.append("assigned", a)  # a's last event is after b's
        history.compact()
        order = [
            json.loads(line)["job"]["job_id"]
            for line in history.path.read_text().splitlines()
        ]
        assert order == ["j000001-bbbbbbbb", "j000000-aaaaaaaa"]


class TestGatewayBootGC:
    def test_oversized_history_is_compacted_at_boot(self, tmp_path):
        from repro.serve import Gateway

        history = JobHistory.for_dir(tmp_path)
        _fill(history, 5, events_per_job=20)
        size = history.path.stat().st_size
        gw = Gateway(tmp_path, workers=1, history_gc_bytes=size // 2)
        assert history.path.stat().st_size < size
        assert len(gw.scheduler.records) == 5
        lines = history.path.read_text().splitlines()
        # compaction + one possible recovery event per job
        assert len(lines) <= 10

    def test_damaged_history_stops_the_boot_like_a_replay(self, tmp_path):
        from repro.serve import Gateway

        history = JobHistory.for_dir(tmp_path)
        _fill_three_lines_with_a_bad_byte_in_line_2(history)
        with pytest.raises(LogDamaged, match="line 2") as replayed:
            history.replay()
        with pytest.raises(LogDamaged) as booted:
            Gateway(tmp_path, workers=1, history_gc_bytes=1)
        assert str(booted.value) == str(replayed.value)

    def test_small_history_is_left_alone(self, tmp_path):
        from repro.serve import Gateway

        history = JobHistory.for_dir(tmp_path)
        _fill(history, 2)
        size = history.path.stat().st_size
        Gateway(tmp_path, workers=1)
        assert history.path.stat().st_size == size


@pytest.mark.slow
class TestAdminGCRoute:
    def test_client_gc_compacts_a_live_gateway(self, tmp_path):
        from repro.serve import Gateway, ServeClient

        gw = Gateway(tmp_path / "serve", workers=1)
        _fill(gw.history, 4, events_per_job=10)
        gw.start_background()
        try:
            client = ServeClient(gw.address)
            stats = client.gc()
            assert stats["events_after"] <= stats["events_before"]
            assert gw.history.path.stat().st_size == \
                stats["bytes_after"]
        finally:
            gw.shutdown()
