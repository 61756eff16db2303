"""End-to-end service-layer acceptance: a live gateway + worker pool.

The PR's contract, executed for real: the gateway accepts at least 8
concurrent specs on a shared pool, every job's final fields match the
serial backend bit-for-bit, an identical resubmission is served from
the cache with zero recompute, the cache survives a gateway restart,
a worker death retries the in-flight job to completion, the workers
die with a killed gateway, and both the live NDJSON stream and the
facade's ``backend="service"`` path speak the same protocol — the
facade's result carries the job's diagnostics as well as its fields.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.distrib import ProblemSpec
from repro.distrib.submit import _worker_env
from repro.serve import Gateway, ServeClient

pytestmark = pytest.mark.slow

STEPS = 30


def _spec(i: int) -> ProblemSpec:
    """Small LB channel problems, distinct per index (different nu)."""
    return ProblemSpec(
        method="lb",
        grid_shape=(24, 16),
        blocks=(1, 1),
        periodic=(True, False),
        params={"nu": 0.04 + 0.002 * i, "gravity": (1e-5, 0.0)},
        geometry={"kind": "channel"},
    )


def _reference(spec: ProblemSpec) -> dict:
    return repro.run(spec, backend="serial", steps=STEPS).fields


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    gw = Gateway(tmp_path_factory.mktemp("serve"), workers=2)
    gw.start_background()
    yield gw
    gw.shutdown()


class TestServiceEndToEnd:
    def test_eight_concurrent_specs_then_cached_resubmission(self, gateway):
        n = 8
        submitted: dict[int, dict] = {}
        errors: list[Exception] = []

        def submit(i: int) -> None:
            try:
                client = ServeClient(gateway.address)
                submitted[i] = client.submit(
                    _spec(i),
                    settings={"steps": STEPS, "diag_every": 10},
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(submitted) == n
        assert len({rec["job_id"] for rec in submitted.values()}) == n

        client = ServeClient(gateway.address)
        finished = {
            i: client.wait(rec["job_id"], timeout=180.0)
            for i, rec in submitted.items()
        }
        for i, rec in finished.items():
            assert rec["state"] == "done", rec
            assert not rec["cached"]

        # both pool workers really shared the load
        workers_used = {rec["worker"] for rec in finished.values()}
        assert len(workers_used) == 2, finished

        # bit-for-bit against the serial backend, for every job
        for i in range(n):
            fields = client.fields(submitted[i]["job_id"])
            for name, ref in _reference(_spec(i)).items():
                assert np.array_equal(fields[name], ref), \
                    f"job {i} field {name} diverged from serial"

        # --- identical resubmission: answered at submit time, zero
        # compute, bit-identical artifact ---
        hits_before = client.cluster()["cache"]["hits"]
        jobs_before = sorted(
            p.name for p in gateway.scheduler.jobs_dir.iterdir()
        )
        for i in range(n):
            rec = client.submit(
                _spec(i), settings={"steps": STEPS, "diag_every": 10}
            )
            assert rec["state"] == "done"
            assert rec["cached"] is True
            assert rec["elapsed"] == 0.0
            assert rec["worker"] == -1
            payload = client.result(rec["job_id"])
            assert payload["computed_by"] == submitted[i]["job_id"]
            fields = client.fields(rec["job_id"])
            first = client.fields(submitted[i]["job_id"])
            assert all(
                np.array_equal(fields[k], first[k]) for k in fields
            )
        assert client.cluster()["cache"]["hits"] == hits_before + n
        # zero recompute: no new job directories were ever created
        jobs_after = sorted(
            p.name for p in gateway.scheduler.jobs_dir.iterdir()
        )
        assert jobs_after == jobs_before

    def test_stream_follows_diagnostics_to_the_end(self, gateway):
        client = ServeClient(gateway.address)
        rec = client.submit(
            _spec(20), settings={"steps": STEPS, "diag_every": 5}
        )
        events = list(client.stream(rec["job_id"]))
        assert events[-1]["event"] == "end"
        assert events[-1]["state"] == "done"
        diags = [e for e in events if e["event"] == "diagnostics"]
        assert len(diags) >= STEPS // 5
        assert all("max_speed" in d["record"] for d in diags)

    def test_cancel_is_terminal(self, gateway):
        client = ServeClient(gateway.address)
        rec = client.submit(_spec(21), settings={"steps": 5000})
        cancelled = client.cancel(rec["job_id"])
        assert cancelled["state"] == "cancelled"
        final = client.wait(rec["job_id"], timeout=30.0)
        assert final["state"] == "cancelled"

    def test_a_held_status_request_answers_as_the_job_ends(self, gateway):
        client = ServeClient(gateway.address)
        job_id = client.submit(_spec(22), settings={"steps": 5000})["job_id"]
        # still running when the hold runs out: the record as it stands
        t0 = time.monotonic()
        held = client._json("GET", f"/jobs/{job_id}?wait=0.2")
        assert held["state"] in ("queued", "running")
        assert time.monotonic() - t0 >= 0.2
        # ended during the hold: answered then, not when the hold ends
        timer = threading.Timer(0.3, client.cancel, (job_id,))
        timer.start()
        t0 = time.monotonic()
        held = client._json("GET", f"/jobs/{job_id}?wait=30")
        timer.join()
        assert held["state"] == "cancelled"
        assert time.monotonic() - t0 < 10.0

    def test_cluster_snapshot_and_render(self, gateway):
        from repro.serve import render

        snap = ServeClient(gateway.address).cluster()
        assert snap["address"] == gateway.address
        assert len(snap["workers"]) == 2
        assert snap["cache"]["entries"] >= 8
        text = render(snap)
        assert gateway.address in text
        assert "pool-00" in text
        assert "hosts" not in snap
        assert not (gateway.serve_dir / "hosts.json").exists()

    def test_facade_service_backend(self, gateway):
        result = repro.run(
            _spec(22), backend="service", steps=STEPS,
            server=gateway.address,
        )
        assert result.backend == "service"
        assert result.job_id
        assert not result.cached
        for name, ref in _reference(_spec(22)).items():
            assert np.array_equal(result.fields[name], ref)
        again = repro.run(
            _spec(22), backend="service", steps=STEPS,
            server=gateway.address,
        )
        assert again.cached is True
        assert again.elapsed == 0.0

    def test_facade_service_backend_returns_diagnostics(self, gateway):
        """A served run hands back the diagnostics the serial backend
        samples, record for record (all but the wall-clock stamp)."""
        from dataclasses import replace

        from repro.distrib import DiagRecord, RunSettings

        spec = ProblemSpec(
            method="lb", grid_shape=(16, 16), blocks=(1, 1),
            periodic=(True, False),
            params={"nu": 0.05, "gravity": (1e-5, 0.0)},
            geometry={"kind": "channel"},
        )
        settings = RunSettings(steps=20, diag_every=10)
        served = repro.run(spec, "service", settings,
                           server=gateway.address)
        serial = repro.run(spec, "serial", settings)

        def unstamped(records):
            return [replace(r, wall_time=0.0) for r in records]

        assert all(isinstance(r, DiagRecord) for r in served.diagnostics)
        assert [r.step for r in serial.diagnostics] == [10, 20]
        assert unstamped(served.diagnostics) == \
            unstamped(serial.diagnostics)


class TestRestartAndRetry:
    def test_cache_survives_gateway_restart(self, tmp_path):
        serve_dir = tmp_path / "serve"
        first = Gateway(serve_dir, workers=1)
        first.start_background()
        try:
            client = ServeClient(first.address)
            rec = client.submit(_spec(0), settings={"steps": STEPS})
            done = client.wait(rec["job_id"], timeout=180.0)
            assert done["state"] == "done" and not done["cached"]
            computed_id = rec["job_id"]
            reference = client.fields(computed_id)
        finally:
            first.shutdown()

        second = Gateway(serve_dir, workers=1)
        second.start_background()
        try:
            # the replayed job table still knows the computed job
            assert second.scheduler.records[computed_id].state == "done"
            client = ServeClient(second.address)
            rec = client.submit(_spec(0), settings={"steps": STEPS})
            assert rec["cached"] is True and rec["state"] == "done"
            payload = client.result(rec["job_id"])
            assert payload["computed_by"] == computed_id
            fields = client.fields(rec["job_id"])
            assert all(
                np.array_equal(fields[k], reference[k]) for k in fields
            )
        finally:
            second.shutdown()

    def test_a_hit_is_counted_once_and_copies_nothing(self, tmp_path):
        """Reading a hit's result, fields and RunResult counts no further
        hits, and the serve dir keeps one copy of each result and no
        worker-state files."""
        serve_dir = tmp_path / "serve"
        gw = Gateway(serve_dir, workers=1)
        gw.start_background()
        try:
            client = ServeClient(gw.address)
            rec = client.submit(_spec(2), settings={"steps": STEPS})
            assert client.wait(rec["job_id"], timeout=180.0)["state"] == \
                "done"
            hit = client.submit(_spec(2), settings={"steps": STEPS})
            assert hit["cached"] is True
            assert client.result(hit["job_id"])["computed_by"] == \
                rec["job_id"]
            assert client.fields(hit["job_id"])
            assert client.run_result(hit["job_id"]).cached is True
            assert client.cluster()["cache"] == \
                {"hits": 1, "misses": 1, "entries": 1}
        finally:
            gw.shutdown()
        assert not (serve_dir / "cache").exists()
        assert not (serve_dir / "pool" / "hb").exists()
        assert sorted(p.name for p in (serve_dir / "jobs").iterdir()) == \
            [rec["job_id"]]

    def test_worker_death_retries_the_job(self, tmp_path):
        gw = Gateway(tmp_path / "serve", workers=1)
        gw.start_background()
        try:
            client = ServeClient(gw.address)
            rec = client.submit(_spec(1), settings={"steps": 4000})
            job_id = rec["job_id"]
            deadline = time.monotonic() + 60.0
            while client.job(job_id)["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            gw.pool.kill(0)
            final = client.wait(job_id, timeout=300.0)
            assert final["state"] == "done", final
            assert final["retries"] >= 1, \
                "the death never registered as a retry"
            assert gw.pool.deaths >= 1
            # the retried run still committed a complete artifact
            result = client.result(job_id)
            assert result["result"]["steps"] == 4000
            assert client.fields(job_id)
        finally:
            gw.shutdown()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


class TestGatewayCrash:
    def test_pool_workers_exit_when_the_gateway_is_killed(self, tmp_path):
        serve_dir = tmp_path / "serve"
        gateway = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve",
             "--dir", str(serve_dir), "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_worker_env(),
        )
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while True:
                assert time.monotonic() < deadline, "pool never ready"
                try:
                    workers = ServeClient(serve_dir).cluster()["workers"]
                except (RuntimeError, OSError):
                    workers = []  # the gateway is not up yet
                if len(workers) == 2 and all(w["heartbeat"]
                                             for w in workers):
                    pids = [w["pid"] for w in workers]
                    break
                time.sleep(0.02)
            gateway.kill()
            gateway.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in pids) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _running(pid)]
            assert not survivors, \
                f"pool workers {survivors} outlived the killed gateway"
        finally:
            gateway.kill()
            gateway.wait(timeout=10)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
