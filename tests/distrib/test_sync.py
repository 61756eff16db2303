"""The App. B synchronization algorithm and §5.2 staggered saving."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.distrib import SaveTurns, SyncFiles


class TestSyncStep:
    def test_t_is_max_plus_one(self, tmp_path):
        sf = SyncFiles(tmp_path, epoch=0)
        for rank, step in enumerate([10, 12, 9, 11]):
            sf.write_step(rank, step)
        assert sf.wait_sync_step(4, timeout=1.0) == 13

    @given(steps=st.lists(st.integers(0, 10_000), min_size=1, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_property_max_plus_one(self, tmp_path_factory, steps):
        tmp = tmp_path_factory.mktemp("sync")
        sf = SyncFiles(tmp, epoch=0)
        for rank, step in enumerate(steps):
            sf.write_step(rank, step)
        assert sf.wait_sync_step(len(steps), timeout=1.0) == max(steps) + 1

    def test_epochs_independent(self, tmp_path):
        a, b = SyncFiles(tmp_path, 0), SyncFiles(tmp_path, 1)
        a.write_step(0, 5)
        b.write_step(0, 50)
        assert a.wait_sync_step(1, timeout=1.0) == 6
        assert b.wait_sync_step(1, timeout=1.0) == 51

    def test_has_written(self, tmp_path):
        sf = SyncFiles(tmp_path, 0)
        assert not sf.has_written(2)
        sf.write_step(2, 4)
        assert sf.has_written(2)

    def test_timeout_when_rank_missing(self, tmp_path):
        sf = SyncFiles(tmp_path, 0)
        sf.write_step(0, 1)
        with pytest.raises(TimeoutError):
            sf.wait_sync_step(2, timeout=0.1, poll=0.02)

    def test_concurrent_writes(self, tmp_path):
        """Signal handlers of many processes append concurrently."""
        sf = SyncFiles(tmp_path, 0)
        n = 24

        def w(rank):
            sf.write_step(rank, 100 + rank)

        threads = [threading.Thread(target=w, args=(r,)) for r in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sf.wait_sync_step(n, timeout=1.0) == 100 + n - 1 + 1

    def test_reached_barrier(self, tmp_path):
        sf = SyncFiles(tmp_path, 0)
        sf.mark_reached(0, 13)
        with pytest.raises(TimeoutError):
            sf.wait_all_reached(2, timeout=0.1, poll=0.02)
        sf.mark_reached(1, 13)
        sf.wait_all_reached(2, timeout=1.0)


class TestSaveTurns:
    def test_rank_order_enforced(self, tmp_path):
        """Savers proceed strictly in rank order (§5.2: 'one after the
        other in an orderly fashion')."""
        n = 6
        order = []
        lock = threading.Lock()
        errors = []

        def saver(rank):
            turns = SaveTurns(tmp_path, step=100)
            try:
                turns.wait_turn(rank, timeout=10.0)
                with lock:
                    order.append(rank)
                turns.finish_turn(rank, n)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=saver, args=(r,))
            for r in reversed(range(n))  # start in worst-case order
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert order == list(range(n))

    def test_completion_marker_only_after_all(self, tmp_path):
        n = 3
        turns = SaveTurns(tmp_path, step=40)
        for rank in range(n - 1):
            turns.wait_turn(rank, timeout=1.0)
            turns.finish_turn(rank, n)
            assert SaveTurns.latest_complete_step(tmp_path) is None
        turns.wait_turn(n - 1, timeout=1.0)
        turns.finish_turn(n - 1, n)
        assert SaveTurns.latest_complete_step(tmp_path) == 40

    def test_latest_complete_step_picks_newest(self, tmp_path):
        for step in (10, 30, 20):
            t = SaveTurns(tmp_path, step=step)
            t.wait_turn(0, timeout=1.0)
            t.finish_turn(0, 1)
        assert SaveTurns.latest_complete_step(tmp_path) == 30

    def test_no_checkpoints(self, tmp_path):
        assert SaveTurns.latest_complete_step(tmp_path) is None

    def test_out_of_turn_finish_rejected(self, tmp_path):
        turns = SaveTurns(tmp_path, step=5)
        with pytest.raises(RuntimeError):
            turns.finish_turn(2, 4)

    def test_wait_turn_timeout(self, tmp_path):
        turns = SaveTurns(tmp_path, step=5)
        with pytest.raises(TimeoutError):
            turns.wait_turn(1, timeout=0.1, poll=0.02)

    def test_reset_after_drops_later_state_only(self, tmp_path):
        for step in (10, 20, 30):
            t = SaveTurns(tmp_path, step=step)
            t.wait_turn(0, timeout=1.0)
            t.finish_turn(0, 1)
        SaveTurns.reset_after(tmp_path, 10)
        assert SaveTurns.complete_steps(tmp_path) == [10]
        assert not (tmp_path / "sync"
                    / "save_turn_step000000020.txt").exists()
        # a replayed save at step 20 now starts from a clean token
        replay = SaveTurns(tmp_path, step=20)
        replay.wait_turn(0, timeout=1.0)
        replay.finish_turn(0, 1)
        assert SaveTurns.latest_complete_step(tmp_path) == 20


class TestMalformedRecords:
    """Garbled sync-file lines warn loudly and never shadow good ones."""

    def test_malformed_line_warns(self, tmp_path):
        from repro.distrib import SyncFileWarning

        sf = SyncFiles(tmp_path, epoch=0)
        sf.write_step(0, 10)
        with open(sf.steps_path, "a") as f:
            f.write("1 12\n0 not-a-number\n")
        with pytest.warns(SyncFileWarning, match="malformed sync record"):
            steps = sf.wait_sync_step(2, timeout=1.0)
        # the garbled line did not erase rank 0's last complete record
        assert steps == 13

    def test_wrong_field_count_warns(self, tmp_path):
        from repro.distrib import SyncFileWarning

        sf = SyncFiles(tmp_path, epoch=0)
        sf.write_step(0, 5)
        with open(sf.steps_path, "a") as f:
            f.write("0 6 extra-field\n")
        with pytest.warns(SyncFileWarning, match="expected 2 fields"):
            assert sf.wait_sync_step(1, timeout=1.0) == 6

    def test_later_complete_record_overrides(self, tmp_path):
        sf = SyncFiles(tmp_path, epoch=0)
        sf.write_step(0, 5)
        sf.write_step(0, 9)  # rank re-announces after a restart
        assert sf.wait_sync_step(1, timeout=1.0) == 10

    def test_blank_lines_ignored_silently(self, tmp_path):
        import warnings as _warnings

        sf = SyncFiles(tmp_path, epoch=0)
        sf.write_step(0, 3)
        with open(sf.steps_path, "a") as f:
            f.write("\n   \n")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert sf.wait_sync_step(1, timeout=1.0) == 4

