"""``repro top`` rendering: a pure function of one /cluster snapshot."""

import io

from repro.serve import render, watch

SNAPSHOT = {
    "wall": 1000.0,
    "address": "127.0.0.1:4242",
    "queue_depth": 3,
    "worker_deaths": 1,
    "cache": {"hits": 5, "misses": 2, "entries": 2},
    "jobs_by_state": {"done": 4, "queued": 3, "running": 2},
    "workers": [
        {
            "index": 0, "host": "pool-00", "pid": 111, "alive": True,
            "heartbeat": {"state": "busy", "job": "j000008-cafecafe",
                          "jobs_done": 4, "wall": 998.5},
        },
        {
            "index": 1, "host": "pool-01", "pid": None, "alive": False,
            "heartbeat": None,
        },
    ],
    "jobs": [
        {"job_id": "j000008-cafecafe", "state": "running",
         "backend": "serial", "priority": 5, "worker": 0, "retries": 1,
         "elapsed": 0.0, "cached": False},
        {"job_id": "j000007-beefbeef", "state": "done",
         "backend": "distributed", "priority": 0, "worker": -1,
         "retries": 0, "elapsed": 3.25, "cached": True},
    ],
}


class TestRender:
    def test_header_carries_the_service_counters(self):
        text = render(SNAPSHOT)
        assert "127.0.0.1:4242" in text
        assert "queue 3" in text
        assert "5 hit / 2 miss / 2 stored" in text
        assert "worker deaths 1" in text
        assert "done=4  queued=3  running=2" in text

    def test_worker_rows(self):
        lines = render(SNAPSHOT).splitlines()
        busy = next(l for l in lines if "pool-00" in l)
        assert "busy" in busy and "j000008-cafecafe" in busy
        assert "1.5s" in busy  # time in state = wall - hb wall
        dead = next(l for l in lines if "pool-01" in l)
        assert "dead" in dead

    def test_job_rows(self):
        text = render(SNAPSHOT)
        assert "j000007-beefbeef" in text
        assert "3.250" in text
        assert "True" in text   # the cached column

    def test_max_jobs_truncation(self):
        text = render(SNAPSHOT, max_jobs=1)
        assert "j000008-cafecafe" in text
        assert "j000007-beefbeef" not in text

    def test_empty_snapshot_renders(self):
        text = render({})
        assert "none yet" in text


class _StubClient:
    def __init__(self, snap):
        self.snap = snap
        self.calls = 0

    def cluster(self):
        self.calls += 1
        return self.snap


class TestWatch:
    def test_bounded_iterations(self):
        client = _StubClient(SNAPSHOT)
        out = io.StringIO()
        watch(client, interval=0.0, iterations=2, out=out)
        assert client.calls == 2
        assert out.getvalue().count("repro serve @") == 2
