"""Blocking HTTP client for the serve gateway (stdlib ``http.client``).

The client is what ``repro submit``/``repro jobs``/``repro result``/
``repro top``, the sweep's service executor and the facade's
``backend="service"`` path speak; :meth:`ServeClient.run_result` is the
one place a finished job becomes a :class:`~repro.facade.RunResult`.
It is deliberately synchronous — one request per connection — because
every caller is either a CLI invocation or a worker-side facade call
that wants a result, not a socket to babysit.
"""

from __future__ import annotations

import http.client
import io
import json
import time
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np

from .jobs import TERMINAL

__all__ = ["ServeClient", "discover"]

#: Longest one status request of :meth:`ServeClient.wait` is held at the
#: gateway (``GET /jobs/<id>?wait=S``) before the client asks again.
WAIT_HOLD = 5.0


def discover(serve_dir: str | Path) -> str:
    """The ``host:port`` a serve directory's gateway bound (or raise)."""
    path = Path(serve_dir) / "gateway.json"
    try:
        info = json.loads(path.read_text())
        return f"{info['host']}:{info['port']}"
    except (OSError, ValueError, KeyError) as exc:
        raise RuntimeError(
            f"no running gateway found at {path} — start one with "
            f"'repro serve --dir {serve_dir}'"
        ) from exc


def _encode(request: dict) -> dict:
    """One job request as JSON-ready data.

    A :class:`~repro.distrib.ProblemSpec` becomes its JSON form and a
    :class:`~repro.distrib.RunSettings` its field dict minus ``hosts``
    (``HostInfo`` objects are not JSON); key order is kept.
    """
    from ..distrib.spec import ProblemSpec

    request = dict(request)
    if isinstance(request["spec"], ProblemSpec):
        request["spec"] = json.loads(request["spec"].to_json())
    settings = request.get("settings")
    if settings is not None and not isinstance(settings, dict):
        settings = asdict(settings)
        settings.pop("hosts", None)
        request["settings"] = settings
    return request


class ServeClient:
    """Talk to one gateway at ``host:port``."""

    def __init__(self, address: str, timeout: float = 60.0) -> None:
        if isinstance(address, (Path,)) or (
            isinstance(address, str) and ":" not in address
        ):
            address = discover(address)
        host, _, port = str(address).rpartition(":")
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = json.dumps(payload).encode() if payload is not None \
                else None
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _json(self, method: str, path: str,
              payload: dict | None = None) -> dict:
        status, body = self._request(method, path, payload)
        try:
            data = json.loads(body.decode() or "{}")
        except ValueError as exc:
            raise RuntimeError(
                f"{method} {path}: non-JSON response ({status})"
            ) from exc
        if status != 200:
            raise RuntimeError(
                f"{method} {path}: {status} — "
                f"{data.get('error', body[:200])}"
            )
        return data

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def healthz(self) -> bool:
        """Whether the gateway answers its liveness probe."""
        try:
            return bool(self._json("GET", "/healthz").get("ok"))
        except (OSError, RuntimeError):
            return False

    def submit(
        self,
        spec,
        settings=None,
        seed: int = 0,
        priority: int = 0,
        backend: str | None = None,
    ) -> dict:
        """Submit one request; returns the job record dict."""
        payload = {"spec": spec, "seed": seed, "priority": priority}
        if settings is not None:
            payload["settings"] = settings
        if backend is not None:
            payload["backend"] = backend
        return self._json("POST", "/jobs", _encode(payload))

    def submit_batch(self, requests: list[dict]) -> list[dict]:
        """Submit many requests in one round trip (the sweep fan-out).

        Each entry is ``{"spec": ProblemSpec | dict, "settings": ...,
        "seed": ..., "priority": ..., "backend": ...}`` with everything
        but ``spec`` optional.  The gateway validates the whole batch
        before accepting any job.  Returns one job record per entry, in
        order.
        """
        payload = {"jobs": [_encode(req) for req in requests]}
        return self._json("POST", "/jobs/batch", payload)["jobs"]

    def jobs(self) -> list[dict]:
        """Every job record the gateway knows, newest first."""
        return self._json("GET", "/jobs")["jobs"]

    def gc(self) -> dict:
        """Compact the gateway's job history; returns the stats."""
        return self._json("POST", "/admin/gc")

    def job(self, job_id: str) -> dict:
        """One job record."""
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued or running job."""
        return self._json("DELETE", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """Record + run summary + artifact paths."""
        return self._json("GET", f"/jobs/{job_id}/result")

    def fields(self, job_id: str) -> dict[str, np.ndarray]:
        """The final global fields, downloaded and decoded."""
        status, body = self._request("GET", f"/jobs/{job_id}/fields")
        if status != 200:
            raise RuntimeError(
                f"GET /jobs/{job_id}/fields: {status} — {body[:200]}"
            )
        with np.load(io.BytesIO(body)) as npz:
            return {name: npz[name] for name in npz.files}

    def cluster(self) -> dict:
        """The live cluster snapshot ``repro top`` renders."""
        return self._json("GET", "/cluster")

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.01
    ) -> dict:
        """Block until the job reaches a terminal state.

        Each status request is held at the gateway until the job ends,
        up to :data:`WAIT_HOLD` seconds, so the record comes back as the
        job ends rather than at the next of a train of polls; ``poll``
        is the pause before asking again after a hold ran out.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = min(deadline - time.monotonic(), WAIT_HOLD,
                       self.timeout / 2)
            rec = self._json(
                "GET", f"/jobs/{job_id}?wait={max(hold, 0.0):.3f}"
            )
            if rec["state"] in TERMINAL:
                return rec
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {rec['state']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll)

    def run_result(self, job_id: str, timeout: float = 600.0):
        """The :class:`~repro.facade.RunResult` of one job, once it ends.

        Waits for the job, then fetches its final fields, its run
        summary (``migrations``, ``rebalances``) and its diagnostics off
        the stream, which replays the run's ``diagnostics.jsonl`` — a
        cache hit's included.  Raises ``RuntimeError`` unless the job
        ended ``done``.
        """
        from ..distrib.diagnostics import DiagRecord
        from ..facade import RunResult

        record = self.wait(job_id, timeout=timeout)
        if record["state"] != "done":
            raise RuntimeError(
                f"service job {job_id} ended {record['state']}: "
                f"{record.get('error') or 'no error recorded'}"
            )
        summary = self.result(job_id).get("result") or {}
        return RunResult(
            backend="service",
            steps=int(record["steps"]),
            elapsed=float(record.get("elapsed") or 0.0),
            fields=self.fields(job_id),
            diagnostics=[
                DiagRecord.from_dict(event["record"])
                for event in self.stream(job_id)
                if event.get("event") == "diagnostics"
            ],
            job_id=job_id,
            cached=bool(record.get("cached")),
            migrations=int(summary.get("migrations") or 0),
            rebalances=int(summary.get("rebalances") or 0),
        )

    def stream(self, job_id: str) -> Iterator[dict]:
        """Follow the job's live NDJSON stream (chunked transfer).

        Yields ``{"event": "diagnostics", "record": {...}}`` lines as
        the run produces them, ending with the ``{"event": "end"}``
        line.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/stream")
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(
                    f"GET /jobs/{job_id}/stream: {resp.status}"
                )
            while True:
                line = resp.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()
