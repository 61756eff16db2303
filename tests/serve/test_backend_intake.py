"""Serve intake: a backend a pool worker cannot run is refused up front.

The fingerprint omits the backend, so an unservable request that got
through would run to a fieldless result (``"simulated"``) or fail only
inside the pool worker, and could fill the cache an identical serial
request is then answered from.  The gateway must answer 400 before
anything is enqueued or looked up.
"""

import asyncio
import json

import pytest

from repro.serve import Gateway
from repro.serve.hashing import fingerprint

SPEC = {
    "method": "lb", "grid_shape": [16, 12], "blocks": [1, 1],
    "periodic": [True, False], "geometry": {"kind": "channel"},
}
SETTINGS = {"steps": 3}
UNSERVABLE = ("simulated", "service", "mpi")


class _Writer:
    """The StreamWriter surface the gateway's handler uses."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _post(gw: Gateway, target: str, payload) -> tuple[int, dict]:
    body = json.dumps(payload).encode()
    raw = (f"POST {target} HTTP/1.1\r\nContent-Length: {len(body)}"
           f"\r\n\r\n").encode() + body

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        writer = _Writer()
        await gw._handle_connection(reader, writer)
        return writer.data

    head, _, reply = asyncio.run(go()).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(reply)


@pytest.fixture()
def gw(tmp_path):
    # never started: no pool worker runs, intake alone is exercised
    return Gateway(tmp_path / "serve")


def _assert_nothing_taken(gw: Gateway) -> None:
    assert gw.scheduler.records == {}
    assert not any(gw.scheduler.jobs_dir.iterdir())
    assert gw.cache.get(fingerprint(SPEC, SETTINGS, 0)) is None


@pytest.mark.parametrize("backend", UNSERVABLE)
def test_single_submit_rejects_unservable_backend(gw, backend):
    status, reply = _post(gw, "/jobs", {
        "spec": SPEC, "settings": SETTINGS, "backend": backend,
    })
    assert status == 400
    assert repr(backend) in reply["error"]
    _assert_nothing_taken(gw)


@pytest.mark.parametrize("backend", UNSERVABLE)
def test_batch_rejects_unservable_backend_all_or_nothing(gw, backend):
    status, reply = _post(gw, "/jobs/batch", {"jobs": [
        {"spec": SPEC, "settings": SETTINGS, "backend": "serial"},
        {"spec": SPEC, "settings": SETTINGS, "backend": backend},
    ]})
    assert status == 400
    assert repr(backend) in reply["error"]
    _assert_nothing_taken(gw)


@pytest.mark.parametrize("backend", [None, "serial", "threaded",
                                     "distributed"])
def test_servable_backends_are_enqueued(gw, backend):
    req = {"spec": SPEC, "settings": SETTINGS}
    if backend is not None:
        req["backend"] = backend
    status, reply = _post(gw, "/jobs", req)
    assert status == 200
    assert reply["state"] == "queued"
    assert reply["backend"] == (backend or "serial")


HYBRID_SPEC = dict(SPEC, blocks=[2, 1], method={
    "default": "lb",
    "regions": [{"box": [[8, 0], [16, 12]], "method": "fd"}],
})
#: requests a run would refuse: ``(spec, settings, backend)``
UNRUNNABLE = {
    "hybrid_rebalance": (
        HYBRID_SPEC, dict(SETTINGS, policy="rebalance"), "distributed"),
    "unknown_transport": (SPEC, dict(SETTINGS, transport="tpc"), None),
    "unknown_policy": (SPEC, dict(SETTINGS, policy="migrat"), None),
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_intake_refuses_what_a_run_would_refuse(gw, case):
    """The serve intake asks the same support check as ``repro.run``:
    a request no pool worker could run is refused at ``validate`` and
    at ``submit``, though its fingerprint may equal a runnable twin's
    (the operational knobs are not hashed)."""
    spec, settings, backend = UNRUNNABLE[case]
    with pytest.raises(ValueError):
        gw.scheduler.validate(spec, settings, backend=backend)
    with pytest.raises(ValueError):
        gw.scheduler.submit(spec, settings, backend=backend)
    _assert_nothing_taken(gw)
    assert not gw.scheduler.history.path.exists()
