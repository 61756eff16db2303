"""The asyncio HTTP/JSON gateway: simulation-as-a-service, stdlib only.

A handwritten HTTP/1.1 server (``asyncio.start_server`` + a small
request parser — no framework, no new runtime deps) in front of the
:class:`~repro.serve.scheduler.Scheduler`.  One event loop owns every
mutation of the job table; the compute happens in the pool's worker
*processes*, so the gateway stays responsive while hundreds of jobs
march.  Nothing polls: the scheduler ticks when a worker's socket
becomes readable (a ``done`` line or a death) or a handler submits or
cancels a job.

Routes (all JSON unless noted)::

    GET    /healthz              liveness probe
    POST   /jobs                 submit {spec, settings, seed, priority,
                                 backend} -> the job record (cached
                                 submissions come back already done)
    POST   /jobs/batch           submit {"jobs": [{...}, ...]} in one
                                 round trip -> {"jobs": [record, ...]}
                                 (the sweep driver's fan-out path)
    POST   /admin/gc             compact jobs.jsonl to the last event
                                 per job -> compaction stats
    GET    /jobs                 every job record, newest first
    GET    /jobs/<id>            one job record
    DELETE /jobs/<id>            cancel (queued or running)
    GET    /jobs/<id>/result     record + run summary + artifact paths
    GET    /jobs/<id>/fields     the final global fields (npz bytes)
    GET    /jobs/<id>/stream     chunked NDJSON: the job's
                                 diagnostics.jsonl tailed live, then one
                                 {"event": "end", ...} line with the
                                 final state and trace summary
    GET    /cluster              workers + hosts + queue + cache stats
                                 (what ``repro top`` renders)

``gateway.json`` in the serve directory records the bound address so
CLI clients can discover a running gateway from the directory alone.

The gateway is **unauthenticated**: anyone who can reach the port can
submit jobs and read results.  Keep it on the loopback default, or put
an authenticating reverse proxy in front before binding ``--host`` to
anything wider.  Request bodies are capped at :data:`MAX_BODY` bytes
(413 beyond it) so a client cannot balloon the gateway's memory.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from pathlib import Path

from .jobs import JobHistory
from .pool import WorkerPool
from .scheduler import Scheduler

__all__ = ["Gateway"]

log = logging.getLogger("repro.serve")

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

#: Largest request body the gateway will read into memory (a spec plus
#: settings is a few KB; anything near this is hostile or a bug).
MAX_BODY = 8 * 1024 * 1024

#: ``jobs.jsonl`` size past which a booting gateway compacts the job
#: history down to the last event per job before replaying it.
HISTORY_GC_BYTES = 4 * 1024 * 1024


class _HttpError(Exception):
    """An error with a status code, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class Gateway:
    """One serve directory's HTTP gateway + scheduler + worker pool."""

    def __init__(
        self,
        serve_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        history_gc_bytes: int = HISTORY_GC_BYTES,
    ) -> None:
        self.serve_dir = Path(serve_dir).resolve()
        self.serve_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port
        self.pool = WorkerPool(self.serve_dir, n_workers=workers)
        self.history = JobHistory.for_dir(self.serve_dir)
        # GC an overgrown history before the scheduler replays it: at
        # boot no appender is live yet, so the rewrite is race-free
        try:
            if (history_gc_bytes > 0
                    and self.history.path.exists()
                    and self.history.path.stat().st_size
                    > history_gc_bytes):
                stats = self.history.compact()
                log.info("compacted job history: %s", stats)
        except OSError:
            log.exception("job-history compaction failed (continuing)")
        self.scheduler = Scheduler(self.serve_dir, self.pool, self.history)
        self._tick_errors: set[str] = set()
        self._server: asyncio.base_events.Server | None = None
        self._tick_task: asyncio.Task | None = None
        self._wake = asyncio.Event()
        #: worker index -> (socket, fd) the loop has a reader on
        self._watched: dict[int, tuple] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the pool, bind the server, start the scheduler tick."""
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        (self.serve_dir / "gateway.json").write_text(json.dumps({
            "host": self.host,
            "port": self.port,
            "workers": self.pool.n_workers,
            "wall": time.time(),  # wall stamp of the boot
        }, indent=2))
        self._tick_task = asyncio.get_running_loop().create_task(
            self._tick_loop()
        )

    async def stop(self) -> None:
        """Stop accepting, cancel the tick, drain the pool."""
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        for _, fd in self._watched.values():
            loop.remove_reader(fd)
        self._watched.clear()
        self.pool.stop()

    async def _tick_loop(self) -> None:
        while True:
            self._wake.clear()
            try:
                self.scheduler.tick()
            except Exception as exc:  # noqa: BLE001 - loop must survive
                # The scheduler isolates per-job errors itself; anything
                # that still reaches here is logged once per distinct
                # error so a recurring failure is not a silent stall.
                key = f"{type(exc).__name__}: {exc}"
                if key not in self._tick_errors:
                    self._tick_errors.add(key)
                    log.exception("scheduler tick failed (loop continues)")
            self._watch_channels()
            await self._wake.wait()

    def _watch_channels(self) -> None:
        """Keep one loop reader on each worker's current socket.

        A respawn closes the old socket, but the selector keeps its
        registration, which would capture the next socket to reuse the
        fd number; the stale reader goes by its saved fd before the loop
        runs again.
        """
        loop = asyncio.get_running_loop()
        for index, (chan, fd) in list(self._watched.items()):
            if self.pool.channels.get(index) is not chan:
                loop.remove_reader(fd)
                del self._watched[index]
        for index, chan in self.pool.channels.items():
            if index not in self._watched:
                loop.add_reader(chan, self._wake.set)
                self._watched[index] = (chan, chan.fileno())

    async def run_forever(self) -> None:
        """Start and serve until cancelled (the ``repro serve`` path)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    @property
    def address(self) -> str:
        """``host:port`` once the server is bound."""
        return f"{self.host}:{self.port}"

    # -- background-thread embedding (tests, benchmarks) ---------------
    def start_background(self, timeout: float = 30.0) -> "Gateway":
        """Run the gateway in a daemon thread; returns once bound."""
        started = threading.Event()
        failure: list[BaseException] = []

        def _runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 - reported below
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_runner, name="repro-serve-gateway", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise TimeoutError("gateway did not come up in time")
        if failure:
            raise failure[0]
        return self

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop a background gateway started by :meth:`start_background`."""
        if self._loop is None or self._thread is None:
            return
        fut = asyncio.run_coroutine_threadsafe(self.stop(), self._loop)
        fut.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._dispatch(writer, *request)
        except _HttpError as exc:
            await self._send_json(
                writer, exc.status, {"error": str(exc)}
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - render, don't die
            try:
                await self._send_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line.strip():
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError as exc:
            raise _HttpError(400, f"malformed request line: {exc}") from exc
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise _HttpError(400, f"bad Content-Length: {exc}") from exc
        if length < 0:
            raise _HttpError(400, "bad Content-Length: negative")
        if length > MAX_BODY:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY}-byte limit",
            )
        if length:
            body = await reader.readexactly(length)
        return method.upper(), target.split("?", 1)[0], headers, body

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload
    ) -> None:
        body = json.dumps(payload).encode()
        await self._send_response(writer, status, body, _JSON)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, writer, method, target, headers, body):
        parts = [p for p in target.split("/") if p]
        if target == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {"ok": True})
        elif target == "/jobs" and method == "POST":
            await self._post_job(writer, body)
        elif target == "/jobs/batch" and method == "POST":
            await self._post_batch(writer, body)
        elif target == "/admin/gc" and method == "POST":
            # runs on the event loop, where every append originates, so
            # the rewrite cannot race a state transition
            await self._send_json(writer, 200, self.history.compact())
        elif target == "/jobs" and method == "GET":
            records = sorted(
                self.scheduler.records.values(),
                key=lambda r: -r.seq,
            )
            await self._send_json(
                writer, 200, {"jobs": [r.to_dict() for r in records]}
            )
        elif target == "/cluster" and method == "GET":
            await self._send_json(writer, 200, self._cluster_payload())
        elif len(parts) >= 2 and parts[0] == "jobs":
            await self._job_route(writer, method, parts)
        else:
            raise _HttpError(404, f"no route for {method} {target}")

    def _submit_one(self, req: dict):
        if not isinstance(req, dict) or "spec" not in req:
            raise _HttpError(400, 'body must be {"spec": {...}, ...}')
        try:
            return self.scheduler.submit(
                req["spec"],
                settings=req.get("settings"),
                seed=int(req.get("seed", 0)),
                priority=int(req.get("priority", 0)),
                backend=req.get("backend"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise _HttpError(400, str(exc)) from exc

    async def _post_job(self, writer, body: bytes) -> None:
        try:
            req = json.loads(body.decode() or "{}")
        except ValueError as exc:
            raise _HttpError(400, f"body is not JSON: {exc}") from exc
        rec = self._submit_one(req)
        self._wake.set()
        await self._send_json(writer, 200, rec.to_dict())

    async def _post_batch(self, writer, body: bytes) -> None:
        """Submit many jobs in one round trip (the sweep fan-out).

        All-or-nothing validation: the whole batch is checked before
        any job is enqueued, so a typo in point 37 of a sweep does not
        leave 36 orphans running.
        """
        try:
            req = json.loads(body.decode() or "{}")
        except ValueError as exc:
            raise _HttpError(400, f"body is not JSON: {exc}") from exc
        jobs = req.get("jobs") if isinstance(req, dict) else None
        if not isinstance(jobs, list) or not jobs:
            raise _HttpError(
                400, 'body must be {"jobs": [{"spec": {...}, ...}]}'
            )
        for entry in jobs:
            if not isinstance(entry, dict) or "spec" not in entry:
                raise _HttpError(
                    400, 'each batch entry must be {"spec": {...}, ...}'
                )
            try:
                self.scheduler.validate(
                    entry["spec"],
                    settings=entry.get("settings"),
                    seed=int(entry.get("seed", 0)),
                    backend=entry.get("backend"),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise _HttpError(400, str(exc)) from exc
        records = [self._submit_one(entry) for entry in jobs]
        self._wake.set()
        await self._send_json(
            writer, 200, {"jobs": [r.to_dict() for r in records]}
        )

    def _record(self, job_id: str):
        rec = self.scheduler.records.get(job_id)
        if rec is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return rec

    async def _job_route(self, writer, method, parts) -> None:
        job_id = parts[1]
        sub = parts[2] if len(parts) > 2 else ""
        rec = self._record(job_id)
        if method == "DELETE" and not sub:
            rec = self.scheduler.cancel(job_id)
            self._wake.set()
            await self._send_json(writer, 200, rec.to_dict())
        elif method != "GET":
            raise _HttpError(405, f"{method} not allowed here")
        elif not sub:
            await self._send_json(writer, 200, rec.to_dict())
        elif sub == "result":
            await self._send_json(
                writer, 200, self.scheduler.result_payload(job_id)
            )
        elif sub == "fields":
            path = self.scheduler.fields_file(job_id)
            if path is None:
                raise _HttpError(
                    404, f"job {job_id} has no fields yet "
                         f"(state {rec.state})"
                )
            await self._send_response(
                writer, 200, path.read_bytes(),
                "application/octet-stream",
            )
        elif sub == "stream":
            await self._stream_job(writer, job_id)
        else:
            raise _HttpError(404, f"unknown job endpoint {sub!r}")

    # ------------------------------------------------------------------
    # live streaming (chunked transfer)
    # ------------------------------------------------------------------
    async def _stream_job(self, writer, job_id: str) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {_NDJSON}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii"))
        await writer.drain()

        async def chunk(line: str) -> None:
            data = (line.rstrip("\n") + "\n").encode()
            writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            await writer.drain()

        diag_path = self.scheduler.diagnostics_file(job_id)
        offset = 0
        while True:
            rec = self._record(job_id)
            offset = await self._drain_diag(diag_path, offset, chunk)
            if rec.terminal:
                break
            await asyncio.sleep(0.1)
        payload = self.scheduler.result_payload(job_id)
        summary = payload.get("result") or {}
        await chunk(json.dumps({
            "event": "end",
            "state": rec.state,
            "cached": rec.cached,
            "error": rec.error,
            "elapsed": rec.elapsed,
            "utilization": summary.get("utilization"),
            "trace_path": summary.get("trace_path"),
        }))
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _drain_diag(self, path: Path, offset: int, chunk) -> int:
        """Forward complete new lines of ``path``; returns new offset."""
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return offset
        while True:
            cut = data.find(b"\n")
            if cut < 0:
                return offset
            line = data[:cut]
            data = data[cut + 1:]
            offset += cut + 1
            if line.strip():
                await chunk(
                    json.dumps({
                        "event": "diagnostics",
                        "record": json.loads(line.decode()),
                    })
                )

    # ------------------------------------------------------------------
    # cluster view
    # ------------------------------------------------------------------
    def _cluster_payload(self) -> dict:
        records = sorted(
            self.scheduler.records.values(), key=lambda r: -r.seq
        )
        by_state: dict[str, int] = {}
        for rec in records:
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
        return {
            "wall": time.time(),  # wall stamp of the snapshot
            "address": self.address,
            "workers": self.pool.status(),
            "worker_deaths": self.pool.deaths,
            "queue_depth": self.scheduler.queue_depth,
            "jobs_by_state": by_state,
            "jobs": [r.to_dict() for r in records[:50]],
            "cache": {
                "hits": self.scheduler.hits,
                "misses": self.scheduler.misses,
                "entries": len(self.scheduler.computed),
            },
        }
