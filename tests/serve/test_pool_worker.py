"""The pool worker: its channel loop, and the seed shaping the run.

The seed participates in the cache fingerprint, so it must also
participate in the computation — seed 0 is the canonical rest start,
a nonzero seed adds the reproducible random density perturbation of
the §4.1 "random" init program.
"""

import json
import socket
import threading

import numpy as np

from repro.distrib import ProblemSpec
from repro.serve.pool_worker import main, run_job


def _write_job(serve_dir, job_id: str, seed: int):
    spec = ProblemSpec(
        method="lb", grid_shape=(16, 12), blocks=(1, 1),
        periodic=(True, False), geometry={"kind": "channel"},
    )
    job_dir = serve_dir / "jobs" / job_id
    job_dir.mkdir(parents=True)
    (job_dir / "job.json").write_text(json.dumps({
        "job_id": job_id,
        "seed": seed,
        "backend": "serial",
        "spec": json.loads(spec.to_json()),
        "settings": {"steps": 5},
    }))
    return job_dir


def _run(serve_dir, job_id: str, seed: int) -> dict:
    job_dir = _write_job(serve_dir, job_id, seed)
    run_job(serve_dir, job_id, 0)
    error = job_dir / "error.json"
    assert not error.exists(), error.read_text()
    with np.load(job_dir / "fields.npz") as npz:
        return {k: npz[k].copy() for k in npz.files}


class TestSeedThreading:
    def test_seed_changes_the_computation(self, tmp_path):
        rest = _run(tmp_path, "j0-rest", seed=0)
        seeded = _run(tmp_path, "j1-seeded", seed=1)
        assert not np.array_equal(rest["rho"], seeded["rho"])

    def test_same_seed_is_reproducible(self, tmp_path):
        first = _run(tmp_path, "j2-a", seed=7)
        second = _run(tmp_path, "j3-b", seed=7)
        for name, ref in first.items():
            assert np.array_equal(second[name], ref)


class TestChannelLoop:
    def test_job_ids_in_done_lines_and_commit_files_out(self, tmp_path):
        good = _write_job(tmp_path, "j0-good", seed=0)
        bad = tmp_path / "jobs" / "j1-bad"
        bad.mkdir(parents=True)
        (bad / "job.json").write_text(json.dumps({"spec": {}}))
        gateway, worker = socket.socketpair()
        rc: list[int] = []
        thread = threading.Thread(target=lambda: rc.append(
            main([str(tmp_path), "0", str(worker.detach())])
        ))
        thread.start()
        try:
            gateway.sendall(b"j0-good\nj1-bad\n")
            with gateway.makefile("rb") as replies:
                assert replies.readline() == b"ready\n"
                assert replies.readline() == b"done j0-good\n"
                assert replies.readline() == b"done j1-bad\n"
            # each reply comes after the job's commit file
            assert (good / "result.json").exists()
            assert (good / "fields.npz").exists()
            assert "error" in json.loads((bad / "error.json").read_text())
        finally:
            gateway.close()  # EOF: the worker exits
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert rc == [0]
        assert not (tmp_path / "pool").exists()
