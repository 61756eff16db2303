"""Worker and monitor internals (no subprocesses)."""

import numpy as np
import os
import pytest

from repro.distrib import (
    EXIT_DONE,
    EXIT_MIGRATED,
    ProblemSpec,
    Worker,
    WorkerConfig,
    decompose_problem,
    initial_fields,
)
from repro.distrib.heartbeat import (
    RECORD_SIZE,
    decode_heartbeat,
    encode_heartbeat,
    open_heartbeat,
    read_heartbeats,
)
from repro.distrib.monitor import _proc_state


def _prepare(tmp_path, blocks=(2, 1), periodic=(True, False), **cfg_kw):
    spec = ProblemSpec(
        method="lb",
        grid_shape=(24, 16),
        blocks=blocks,
        periodic=periodic,
        params={"nu": 0.1},
        geometry={"kind": "channel"},
    )
    fields = initial_fields(spec, "rest")
    decompose_problem(spec, fields, tmp_path)
    cfg = WorkerConfig(
        workdir=str(tmp_path), rank=0, host="virt0", steps_total=5,
        **cfg_kw,
    )
    return spec, cfg


class TestWorkerConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = WorkerConfig(
            workdir=str(tmp_path), rank=3, host="h", steps_total=100,
            save_every=10, transport="udp",
        )
        back = WorkerConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_path_naming(self, tmp_path):
        assert WorkerConfig.path(tmp_path, 7).name == "cfg_rank0007.json"

    def test_exit_codes(self):
        assert EXIT_DONE == 0
        assert EXIT_MIGRATED == 75  # EX_TEMPFAIL


class TestWorkerConstruction:
    def test_builds_from_dumps(self, tmp_path):
        _prepare(tmp_path)
        w = Worker(WorkerConfig(
            workdir=str(tmp_path), rank=0, host="virt0", steps_total=5,
        ))
        assert w.sub.block.rank == 0
        assert w.n_ranks == 2
        assert "f" in w.sub.fields  # method field restored from dump
        assert "filter_keep" in w.sub.aux  # aux rebuilt by init_subregion

    def test_rank_mismatch_detected(self, tmp_path):
        _prepare(tmp_path)
        from repro.distrib import dump_path

        with pytest.raises(RuntimeError, match="holds rank"):
            Worker(WorkerConfig(
                workdir=str(tmp_path), rank=1, host="h", steps_total=5,
                dump_in=str(dump_path(tmp_path / "dumps", 0)),
            ))

    def test_unknown_transport(self, tmp_path):
        _prepare(tmp_path)
        with pytest.raises(ValueError, match="transport"):
            Worker(WorkerConfig(
                workdir=str(tmp_path), rank=0, host="h", steps_total=5,
                transport="carrier-pigeon",
            ))

    def test_neighbor_discovery(self, tmp_path):
        _prepare(tmp_path)
        w = Worker(WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h", steps_total=5,
        ))
        # periodic 2x1 chain: rank 1 on both sides, once
        assert w.channels.neighbors == [1]


class TestUsr2Handler:
    def test_wish_file_without_request(self, tmp_path):
        """A user's direct kill -USR2 leaves a wish for the monitor."""
        _prepare(tmp_path)
        w = Worker(WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h", steps_total=5,
        ))
        w._usr2_handler(None, None)
        assert (tmp_path / "sync" / "wish_rank0000").exists()
        assert w._sync_epoch is None

    def test_sync_entry_with_request(self, tmp_path):
        """A monitor-initiated request makes the handler report its
        step (App. B phase 1)."""
        import json

        _prepare(tmp_path)
        w = Worker(WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h", steps_total=5,
        ))
        req = tmp_path / "sync" / "epoch0000_request.json"
        req.parent.mkdir(exist_ok=True)
        req.write_text(json.dumps({"ranks": [0]}))
        w._usr2_handler(None, None)
        assert w._sync_epoch == 0
        from repro.distrib import SyncFiles

        assert SyncFiles(tmp_path, 0).has_written(0)

    def test_handler_idempotent(self, tmp_path):
        import json

        _prepare(tmp_path)
        w = Worker(WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h", steps_total=5,
        ))
        req = tmp_path / "sync" / "epoch0000_request.json"
        req.parent.mkdir(exist_ok=True)
        req.write_text(json.dumps({"ranks": [0]}))
        w._usr2_handler(None, None)
        w._usr2_handler(None, None)  # double signal
        steps = (tmp_path / "sync" / "epoch0000_steps.txt").read_text()
        assert steps.count("\n") == 1


class TestProcState:
    def test_own_process_is_running(self):
        assert _proc_state(os.getpid()) in ("R", "S", "D")

    def test_missing_process(self):
        # PID 2^22 is above the default pid_max
        assert _proc_state(2**22 + 1) == "X"


class TestNiceness:
    def test_default_niceness(self):
        """§5.1's nice level is a constant of the worker, not a knob."""
        from repro.distrib.worker import NICENESS

        assert NICENESS == 10

    def test_spawned_worker_runs_niced(self, tmp_path):
        """§5.1: parallel subprocesses run at low priority so the
        regular user keeps interactive response."""
        import time

        from repro.distrib.submit import spawn_worker

        _prepare(tmp_path, blocks=(1, 1))
        # a (1,1) decomposition has no neighbours: the worker runs its
        # steps immediately and exits; sample its niceness while alive
        cfg = WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h", steps_total=200,
        )
        proc = spawn_worker(cfg)
        try:
            nice_value = None
            deadline = time.time() + 30
            while time.time() < deadline and proc.poll() is None:
                try:
                    stat = open(f"/proc/{proc.pid}/stat").read()
                    nice_value = int(stat.rsplit(")", 1)[1].split()[16])
                    if nice_value == 10:
                        break
                except (OSError, IndexError, ValueError):
                    pass
                time.sleep(0.02)
            assert nice_value == 10
        finally:
            proc.kill()
            proc.wait()


class TestMonitorHeartbeats:
    def _monitor(self, tmp_path):
        from repro.distrib import HostDB, Monitor, paper_cluster

        return Monitor(tmp_path, HostDB(paper_cluster()), procs={},
                       base_cfg={})

    def test_reads_heartbeats(self, tmp_path):
        mon = self._monitor(tmp_path)
        hb = tmp_path / "hb"
        hb.mkdir()
        (hb / "rank0000.txt").write_bytes(encode_heartbeat(42, 123.0, 0.0))
        (hb / "rank0003.txt").write_bytes(encode_heartbeat(40, 124.0, 0.0))
        assert mon._read_heartbeats() == {0: 42, 3: 40}

    def test_missing_dir(self, tmp_path):
        mon = self._monitor(tmp_path)
        assert mon._read_heartbeats() == {}

    def test_garbage_files_ignored(self, tmp_path):
        mon = self._monitor(tmp_path)
        hb = tmp_path / "hb"
        hb.mkdir()
        (hb / "rank0001.txt").write_text("not a step\n")
        (hb / "rank0002.txt").write_text("")
        (hb / "rank0003.txt").write_text("7 1.0\n")  # no checksum
        (hb / "rank0004.txt").write_bytes(encode_heartbeat(7, 1.0, 0.0))
        (hb / "rank0005.txt").write_bytes(encode_heartbeat(8, 1.0, 0.0)[:-1])
        assert mon._read_heartbeats() == {4: 7}


class TestHeartbeatRecord:
    def test_round_trip(self):
        record = encode_heartbeat(42, 1792345678.125, 1.5e-3)
        assert len(record) == RECORD_SIZE
        assert decode_heartbeat(record) == (42, 1792345678.125, 1.5e-3)

    def test_overflow_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            encode_heartbeat(10**12, 0.0, 0.0)

    def test_worker_rewrites_one_record(self, tmp_path):
        """1,000 steps of a real worker leave one record, the last."""
        import signal

        _prepare(tmp_path, blocks=(1, 1), periodic=(False, False))
        worker = Worker(WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h", steps_total=1000,
        ))
        handler = signal.getsignal(signal.SIGUSR2)
        try:
            assert worker.run() == EXIT_DONE
        finally:
            signal.signal(signal.SIGUSR2, handler)
        data = (tmp_path / "hb" / "rank0000.txt").read_bytes()
        assert len(data) == RECORD_SIZE
        step, _, comp = decode_heartbeat(data)
        assert step == 1000
        assert comp == pytest.approx(worker._comp_ema, abs=1e-9)

    def test_reopen_keeps_the_last_record(self, tmp_path):
        """A restarted rank's map leaves its previous incarnation's
        record readable; a foreign file is resized to one record and
        still skipped."""
        hb = open_heartbeat(tmp_path, 0)
        hb[:] = encode_heartbeat(7, 1.0, 0.0)
        hb.close()
        (tmp_path / "hb" / "rank0001.txt").write_text("7 1.0\n")
        for rank in (0, 1):
            open_heartbeat(tmp_path, rank).close()
        assert read_heartbeats(tmp_path) == {0: (7, 1.0, 0.0)}
        assert (tmp_path / "hb" / "rank0001.txt").stat().st_size \
            == RECORD_SIZE

    def test_every_torn_read_rejected(self):
        """A reader racing a rewrite sees the first ``k`` bytes of
        record n+1 followed by the rest of record n."""
        records = [
            encode_heartbeat(step, 1792345678.0 + 0.004 * step,
                             1.0e-3 + 1.0e-6 * step)
            for step in (8, 9, 10, 99, 100, 999, 1000)
        ]
        for old, new in zip(records, records[1:]):
            valid = {old: decode_heartbeat(old), new: decode_heartbeat(new)}
            for k in range(1, RECORD_SIZE):
                torn = new[:k] + old[k:]
                assert decode_heartbeat(torn) == valid.get(torn), (old, k)
