"""Asyncio HTTP/JSON evaluation server (``python -m repro serve``).

The server turns the one-shot flow CLI into a long-running evaluation
oracle: many concurrent clients submit flow/stage requests, a FIFO
scheduler fans them onto the persistent warm worker pool
(:mod:`repro.core.pool`), identical in-flight requests are deduped
across clients by :meth:`EvalRequest.cache_token`, and completed
results are served from the one result store
(:class:`repro.core.store.ContentStore`), the same entries CLI runs and
local sweeps read and write.  A request is looked up in the store when
it is submitted; a miss is evaluated directly on the pool and its
result stored by the server, under the server's own root, before any
job sees it.  Everything is stdlib: ``asyncio`` streams plus a minimal
HTTP/1.1 handler — no new dependencies.

Endpoints (all JSON unless noted)::

    GET  /v1/health                     liveness + drain state
    GET  /v1/stats                      jobs, cache, dedupe, pool stats
    POST /v1/tasks[?wait=1&timeout_s=T] submit one request -> job view
    POST /v1/batch                      submit {"tasks": [...]} -> views
    GET  /v1/jobs/<id>[?wait=1&...]     job view (long-poll with wait=1)
    GET  /v1/jobs/<id>/result           pickled ServeResult (octet-stream)
    DELETE /v1/jobs/<id>                cancel a job
    POST /v1/admin/pause|resume         hold / release the scheduler
    POST /v1/admin/drain                graceful drain (same as SIGTERM)

Job lifecycle: ``queued -> running -> done | error``; ``cancelled`` via
DELETE.  Responses carry the request's cache token as ``ETag``;
``If-None-Match`` round-trips return ``304 Not Modified`` without a
body.  Cancelling one of several jobs attached to the same evaluation
never cancels the others — the evaluation itself is dropped only when
its last job goes.

On SIGTERM/SIGINT the server drains: new submissions get ``503``,
accepted work finishes, then the process exits — no request that was
acknowledged is ever lost.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set
from urllib.parse import parse_qs, urlsplit

from concurrent.futures.process import BrokenProcessPool

from ..core.pool import get_pool, pool_health, shutdown_pool
from .protocol import (EvalRequest, ServeResult, canonical_dumps,
                       execute_request)
from .store import ContentStore


@dataclass
class ServerConfig:
    """Tunables of one server instance.

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; see ``EvalServer.port``).
        workers: Worker processes for evaluation (the persistent pool).
        cache_dir: Store directory override (``None`` = the default
            store directory, honouring ``REPRO_FLOW_CACHE``).
    """

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    cache_dir: Optional[Path] = None


#: Completed jobs retained for later ``GET``s; the oldest finished jobs
#: beyond this are forgotten.
MAX_DONE_JOBS = 10_000

_FINAL_STATES = ("done", "error", "cancelled")


@dataclass
class _Job:
    """One client submission (possibly sharing an evaluation)."""

    id: str
    request: EvalRequest
    token: str
    state: str = "queued"
    cached: bool = False
    outcome: Optional[ServeResult] = None
    created_s: float = field(default_factory=time.monotonic)
    finished: asyncio.Event = field(default_factory=asyncio.Event)

    def view(self) -> Dict[str, object]:
        """The job's JSON representation."""
        out: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "kind": self.request.kind,
            "design": self.request.design,
            "etag": self.token,
            "cached": self.cached,
        }
        if self.outcome is not None:
            out["wall_s"] = round(self.outcome.wall_s, 4)
            if self.outcome.ok:
                out["metrics"] = _json_safe(self.outcome.metrics)
            else:
                out["error"] = {
                    "type": self.outcome.error_type,
                    "message": self.outcome.error_message,
                    "traceback": self.outcome.error_traceback,
                }
        return out


@dataclass
class _Evaluation:
    """One unit of actual compute; N jobs may be attached to it."""

    token: str
    request: EvalRequest
    state: str = "queued"  # queued | running | done | cancelled
    job_ids: Set[str] = field(default_factory=set)


def _json_safe(value):
    """Recursively replace non-finite floats with ``None``."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and (value != value or value in (
            float("inf"), float("-inf"))):
        return None
    return value


class _HttpError(Exception):
    """Routing-level error carrying an HTTP status."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class EvalServer:
    """The evaluation service: scheduler, cache tier, HTTP front end."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.store = ContentStore(self.config.cache_dir)
        self._jobs: Dict[str, _Job] = {}
        self._done_order: Deque[str] = collections.deque()
        self._evals: Dict[str, _Evaluation] = {}
        self._queue: Deque[str] = collections.deque()  # tokens, FIFO
        self._job_seq = itertools.count(1)
        self._cond: Optional[asyncio.Condition] = None
        self._paused = False
        self._draining = False
        self._stopping = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: List[asyncio.Task] = []
        self._stopped = asyncio.Event()
        self._started_s = time.monotonic()
        # Traffic counters (in-memory; the store also persists its own).
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedupe_joins = 0
        self.evaluations_run = 0
        self.requests_served = 0

    # ---------------------------------------------------------------- #
    # Lifecycle.
    # ---------------------------------------------------------------- #

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener, spawn scheduler workers, warm the pool."""
        self._cond = asyncio.Condition()
        loop = asyncio.get_running_loop()
        # Create the persistent pool up front so the first request does
        # not pay worker spin-up, and so later fan-outs reuse it warm.
        get_pool(max(1, self.config.workers))
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        n = max(1, self.config.workers)
        self._workers = [loop.create_task(self._scheduler_worker())
                         for _ in range(n)]
        try:
            import signal
            loop.add_signal_handler(
                signal.SIGTERM, lambda: loop.create_task(self.drain()))
            loop.add_signal_handler(
                signal.SIGINT, lambda: loop.create_task(self.drain()))
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread / platform without signal support

    async def serve_until_stopped(self) -> None:
        """Block until a drain (signal or admin endpoint) completes."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful drain: refuse new work, finish accepted work, stop.

        Idempotent; safe to call from signal handlers and endpoints.
        """
        if self._draining:
            return
        self._draining = True
        self._paused = False
        async with self._cond:
            self._cond.notify_all()
        while self._evals:
            await asyncio.sleep(0.02)
        await self._shutdown()

    async def _shutdown(self) -> None:
        self._stopping = True
        async with self._cond:
            self._cond.notify_all()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    # ---------------------------------------------------------------- #
    # Scheduling.
    # ---------------------------------------------------------------- #

    async def _scheduler_worker(self) -> None:
        """One scheduler coroutine: pop evaluations, run them on the
        process pool, finalize attached jobs."""
        while True:
            evaluation = None
            async with self._cond:
                while not self._runnable() and not self._stopping:
                    await self._cond.wait()
                if self._stopping and not self._runnable():
                    return
                while self._queue:
                    token = self._queue.popleft()
                    ev = self._evals.get(token)
                    if ev is not None and ev.state == "queued":
                        evaluation = ev
                        break
            if evaluation is None:
                continue
            evaluation.state = "running"
            for job_id in evaluation.job_ids:
                job = self._jobs.get(job_id)
                if job is not None and job.state == "queued":
                    job.state = "running"
            outcome = await self._execute(evaluation.request)
            self.evaluations_run += 1
            if outcome.ok:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.store.put, evaluation.request, outcome)
            self._finalize(evaluation, outcome)

    def _runnable(self) -> bool:
        return bool(self._queue) and not self._paused

    async def _execute(self, request: EvalRequest) -> ServeResult:
        """Run one evaluation on the pool, surviving one pool death."""
        loop = asyncio.get_running_loop()
        for attempt in range(2):
            pool, _reused = get_pool(max(1, self.config.workers))
            try:
                return await loop.run_in_executor(
                    pool, execute_request, request)
            except BrokenProcessPool:
                shutdown_pool()
                if attempt:
                    break
        return ServeResult(
            request=request, error_type="BrokenProcessPool",
            error_message="worker pool died twice evaluating this "
                          "request")

    def _finalize(self, evaluation: _Evaluation,
                  outcome: ServeResult) -> None:
        evaluation.state = "done"
        self._evals.pop(evaluation.token, None)
        for job_id in evaluation.job_ids:
            job = self._jobs.get(job_id)
            if job is None or job.state == "cancelled":
                continue
            job.outcome = outcome
            job.state = "done" if outcome.ok else "error"
            job.finished.set()
            self._remember_done(job_id)

    def _remember_done(self, job_id: str) -> None:
        """Retain finished jobs up to :data:`MAX_DONE_JOBS`."""
        self._done_order.append(job_id)
        while len(self._done_order) > MAX_DONE_JOBS:
            old = self._done_order.popleft()
            self._jobs.pop(old, None)

    async def _submit(self, request: EvalRequest) -> _Job:
        """Create a job for a request: serve it from the shared tier,
        join an identical in-flight evaluation, or queue a new one."""
        if self._draining:
            raise _HttpError(503, "server is draining")
        token = request.cache_token()
        job = _Job(id=f"j{next(self._job_seq):06d}", request=request,
                   token=token)
        self._jobs[job.id] = job

        ev = self._evals.get(token)
        if ev is None:
            hit = await asyncio.get_running_loop().run_in_executor(
                None, self.store.get, request)
            # Re-check: another submit may have queued it while the
            # store read was off-loop.
            ev = self._evals.get(token)
            if ev is None and hit is not None:
                self.cache_hits += 1
                job.outcome = hit
                job.cached = True
                job.state = "done" if hit.ok else "error"
                job.finished.set()
                self._remember_done(job.id)
                return job
        if ev is not None and ev.state in ("queued", "running"):
            self.dedupe_joins += 1
            ev.job_ids.add(job.id)
            job.state = ev.state
            return job
        self.cache_misses += 1
        ev = _Evaluation(token=token, request=request,
                         job_ids={job.id})
        self._evals[token] = ev
        async with self._cond:
            self._queue.append(token)
            self._cond.notify()
        return job

    def _cancel(self, job: _Job) -> None:
        """Cancel one job without touching its evaluation siblings."""
        if job.state in _FINAL_STATES:
            return
        job.state = "cancelled"
        job.finished.set()
        self._remember_done(job.id)
        ev = self._evals.get(job.token)
        if ev is not None:
            ev.job_ids.discard(job.id)
            if not ev.job_ids and ev.state == "queued":
                # Nobody is waiting: drop the queued evaluation (a
                # running one is left to finish and warm the cache).
                ev.state = "cancelled"
                self._evals.pop(job.token, None)

    # ---------------------------------------------------------------- #
    # Stats.
    # ---------------------------------------------------------------- #

    def stats_view(self) -> Dict[str, object]:
        """The ``/v1/stats`` payload (store sizes read separately)."""
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        total = self.cache_hits + self.cache_misses
        return {
            "jobs": by_state,
            "in_flight": {
                "queued": sum(1 for e in self._evals.values()
                              if e.state == "queued"),
                "running": sum(1 for e in self._evals.values()
                               if e.state == "running"),
            },
            "evaluations_run": self.evaluations_run,
            "dedupe_joins": self.dedupe_joins,
            "requests_served": self.requests_served,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": (self.cache_hits / total) if total else None,
            },
            "pool": pool_health(),
            "paused": self._paused,
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - self._started_s, 3),
        }

    # ---------------------------------------------------------------- #
    # HTTP front end.
    # ---------------------------------------------------------------- #

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or not request_line.strip():
                    break
                try:
                    method, target, _version = \
                        request_line.decode("ascii").split()
                except ValueError:
                    await self._respond(writer, 400, {
                        "error": "malformed request line"})
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _sep, value = line.decode("latin1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or "0")
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                try:
                    status, payload, extra = await self._route(
                        method.upper(), target, headers, body)
                except _HttpError as exc:
                    status, payload, extra = (exc.status,
                                              {"error": exc.message}, {})
                except Exception as exc:  # noqa: BLE001 — 500, not crash
                    status, payload, extra = (
                        500, {"error": f"{type(exc).__name__}: {exc}"},
                        {})
                self.requests_served += 1
                await self._respond(writer, status, payload, extra,
                                    keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            pass  # loop teardown mid-read; close quietly below
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, extra: Optional[Dict[str, str]] = None,
                       keep_alive: bool = True) -> None:
        reasons = {200: "OK", 304: "Not Modified", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   409: "Conflict", 500: "Internal Server Error",
                   503: "Service Unavailable"}
        if status == 304 or payload is None:
            body = b""
            ctype = None
        elif isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            ctype = "application/octet-stream"
        else:
            body = (json.dumps(_json_safe(payload), sort_keys=True)
                    + "\n").encode()
            ctype = "application/json"
        lines = [f"HTTP/1.1 {status} {reasons.get(status, 'Status')}",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        if ctype is not None:
            lines.append(f"Content-Type: {ctype}")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes):
        """Dispatch one request; returns ``(status, payload, extra)``."""
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}

        if path == "/v1/health" and method == "GET":
            return 200, {"status": "ok", "draining": self._draining,
                         "paused": self._paused}, {}
        if path == "/v1/stats" and method == "GET":
            store_stats = await asyncio.get_running_loop() \
                .run_in_executor(None, self.store.stats)
            view = self.stats_view()
            view["store"] = {
                "root": (str(store_stats.root)
                         if store_stats.root else None),
                "entries": store_stats.entries,
                "total_bytes": store_stats.total_bytes,
                "hits": store_stats.hits,
                "misses": store_stats.misses,
            }
            return 200, view, {}
        if path == "/v1/tasks" and method == "POST":
            return await self._route_submit(headers, body, query)
        if path == "/v1/batch" and method == "POST":
            data = _parse_json(body)
            tasks = data.get("tasks")
            if not isinstance(tasks, list) or not tasks:
                raise _HttpError(400, "batch needs a non-empty "
                                      "'tasks' list")
            jobs = [await self._submit(_parse_request(entry))
                    for entry in tasks]
            return 200, {"jobs": [j.view() for j in jobs]}, {}
        if path.startswith("/v1/jobs/"):
            return await self._route_job(method, path, headers, query)
        if path == "/v1/admin/pause" and method == "POST":
            self._paused = True
            return 200, {"paused": True}, {}
        if path == "/v1/admin/resume" and method == "POST":
            self._paused = False
            async with self._cond:
                self._cond.notify_all()
            return 200, {"paused": False}, {}
        if path == "/v1/admin/drain" and method == "POST":
            asyncio.get_running_loop().create_task(self.drain())
            return 200, {"draining": True}, {}
        raise _HttpError(404, f"no route for {method} {path}")

    async def _route_submit(self, headers: Dict[str, str], body: bytes,
                            query: Dict[str, str]):
        request = _parse_request(_parse_json(body))
        token = request.cache_token()
        if headers.get("if-none-match", "").strip('"') == token:
            has = await asyncio.get_running_loop().run_in_executor(
                None, self.store.get_bytes, token)
            if has is not None:
                self.cache_hits += 1
                return 304, None, {"ETag": f'"{token}"'}
        job = await self._submit(request)
        if query.get("wait") in ("1", "true") \
                and job.state not in _FINAL_STATES:
            await self._wait_for(job, query)
        return 200, {"job": job.view()}, {"ETag": f'"{token}"'}

    async def _route_job(self, method: str, path: str,
                         headers: Dict[str, str],
                         query: Dict[str, str]):
        tail = path[len("/v1/jobs/"):]
        job_id, _sep, sub = tail.partition("/")
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if method == "DELETE" and not sub:
            self._cancel(job)
            return 200, {"job": job.view()}, {}
        if method != "GET":
            raise _HttpError(405, f"{method} not allowed here")
        if sub == "result":
            if job.state == "cancelled":
                raise _HttpError(409, f"job {job_id} was cancelled")
            if job.state not in ("done", "error"):
                raise _HttpError(409, f"job {job_id} is {job.state}")
            if headers.get("if-none-match", "").strip('"') == job.token:
                return 304, None, {"ETag": f'"{job.token}"'}
            loop = asyncio.get_running_loop()
            payload = None
            if job.outcome is not None and job.outcome.ok:
                payload = await loop.run_in_executor(
                    None, self.store.get_bytes, job.token)
            if payload is None:
                # Not stored (an error, or a disabled store): a flow
                # result's dump takes long enough to stall every other
                # request if it ran on the event loop.
                payload = await loop.run_in_executor(
                    None, canonical_dumps, job.outcome.canonical())
            return 200, payload, {"ETag": f'"{job.token}"'}
        if sub:
            raise _HttpError(404, f"no route for job sub-path {sub!r}")
        if query.get("wait") in ("1", "true") \
                and job.state not in _FINAL_STATES:
            await self._wait_for(job, query)
        if job.state in _FINAL_STATES \
                and headers.get("if-none-match", "").strip('"') \
                == job.token:
            return 304, None, {"ETag": f'"{job.token}"'}
        return 200, {"job": job.view()}, {"ETag": f'"{job.token}"'}

    async def _wait_for(self, job: _Job,
                        query: Dict[str, str]) -> None:
        try:
            timeout = float(query.get("timeout_s", "30"))
        except ValueError:
            raise _HttpError(400, "timeout_s must be a number")
        try:
            await asyncio.wait_for(job.finished.wait(),
                                   timeout=max(0.0, timeout))
        except asyncio.TimeoutError:
            pass  # long-poll timeout: report the current state


def _parse_json(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        data = json.loads(body.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"bad JSON body: {exc}")
    if not isinstance(data, dict):
        raise _HttpError(400, "JSON body must be an object")
    return data


def _parse_request(data: Dict[str, object]) -> EvalRequest:
    try:
        return EvalRequest.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise _HttpError(400, f"bad request: {exc}")
    except KeyError as exc:
        raise _HttpError(400, f"bad request: unknown design {exc}")


async def run_server(config: Optional[ServerConfig] = None,
                     announce=None) -> None:
    """Run a server until it is drained (CLI entry point).

    Args:
        config: Server tunables.
        announce: Optional callback receiving the bound URL once
            listening (the CLI prints it to stderr).
    """
    server = EvalServer(config)
    await server.start()
    if announce is not None:
        announce(server.url)
    await server.serve_until_stopped()


@dataclass
class ServerHandle:
    """A server running on a daemon thread (tests and benchmarks).

    Attributes:
        url: Base URL of the running server.
        port: Bound port.
        server: The underlying :class:`EvalServer`.
    """

    url: str
    port: int
    server: EvalServer
    _loop: asyncio.AbstractEventLoop
    _thread: threading.Thread

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop)
        try:
            future.result(timeout=timeout)
        except Exception:  # noqa: BLE001 — join below is the backstop
            pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def start_in_thread(config: Optional[ServerConfig] = None,
                    timeout: float = 10.0) -> ServerHandle:
    """Start a server on a background thread; returns once listening."""
    config = config or ServerConfig(port=0)
    ready = threading.Event()
    box: Dict[str, object] = {}

    async def _main():
        server = EvalServer(config)
        await server.start()
        box["server"] = server
        box["loop"] = asyncio.get_running_loop()
        box["url"] = server.url
        box["port"] = server.port
        ready.set()
        await server.serve_until_stopped()

    def _runner():
        try:
            asyncio.run(_main())
        except Exception as exc:  # noqa: BLE001 — surface via ready box
            box["error"] = exc
            ready.set()

    thread = threading.Thread(target=_runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not ready.wait(timeout=timeout):
        raise RuntimeError("server did not start in time")
    if "error" in box:
        raise RuntimeError(f"server failed to start: {box['error']}")
    return ServerHandle(url=box["url"], port=box["port"],
                        server=box["server"], _loop=box["loop"],
                        _thread=thread)
