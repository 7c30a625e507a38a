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
    GET  /v1/jobs/<id>[?wait=1&...]     job view (long-poll with wait=1)
    GET  /v1/jobs/<id>/result           pickled ServeResult (octet-stream)

Lifecycle: every submission is a job, and a job reads its state from
the evaluation it belongs to: ``queued -> running -> done | error``.
Identical submissions share one evaluation; a store hit is an
evaluation that is finished from the start.  The job view's ``etag``
is the request's cache token.  A request whose head cannot be parsed
gets a ``400`` and the connection is closed.

On SIGTERM/SIGINT (or :meth:`ServerHandle.stop`) the server drains:
new submissions get ``503``, every accepted evaluation, queued or
running, finishes and is stored, then the process exits — no request
that was acknowledged is ever lost.
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
from typing import Deque, Dict, List, Optional, Tuple
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


@dataclass
class _Evaluation:
    """One unit of actual compute; every job for its request reads it."""

    token: str
    request: EvalRequest
    state: str = "queued"  # queued | running | done | error
    outcome: Optional[ServeResult] = None
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    job_ids: List[str] = field(default_factory=list)

    def finish(self, outcome: ServeResult) -> None:
        self.outcome = outcome
        self.state = "done" if outcome.ok else "error"
        self.finished.set()


@dataclass
class _Job:
    """One client submission (possibly sharing an evaluation)."""

    id: str
    evaluation: _Evaluation
    cached: bool = False

    def view(self) -> Dict[str, object]:
        """The job's JSON representation."""
        ev = self.evaluation
        out: Dict[str, object] = {
            "id": self.id,
            "state": ev.state,
            "kind": ev.request.kind,
            "design": ev.request.design,
            "etag": ev.token,
            "cached": self.cached,
        }
        if ev.outcome is not None:
            out["wall_s"] = round(ev.outcome.wall_s, 4)
            if ev.outcome.ok:
                out["metrics"] = _json_safe(ev.outcome.metrics)
            else:
                out["error"] = {
                    "type": ev.outcome.error_type,
                    "message": ev.outcome.error_message,
                    "traceback": ev.outcome.error_traceback,
                }
        return out


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
        self._evals: Dict[str, _Evaluation] = {}  # in flight, by token
        self._queue: asyncio.Queue[_Evaluation] = asyncio.Queue()
        self._job_seq = itertools.count(1)
        self._draining = False
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
        """Block until a drain (signal or :meth:`ServerHandle.stop`)
        completes."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful drain: refuse new work, finish accepted work, stop.

        Idempotent; safe to call from signal handlers.
        """
        if self._draining:
            return
        self._draining = True
        while self._evals:
            await asyncio.sleep(0.02)
        await self._shutdown()

    async def _shutdown(self) -> None:
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
        process pool, store and finish them."""
        while True:
            evaluation = await self._queue.get()
            evaluation.state = "running"
            outcome = await self._execute(evaluation.request)
            self.evaluations_run += 1
            # Store first: a finished job's result route reads the
            # stored bytes.
            if outcome.ok:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.store.put, evaluation.request, outcome)
            evaluation.finish(outcome)
            del self._evals[evaluation.token]
            for job_id in evaluation.job_ids:
                self._remember_done(job_id)

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
        job_id = f"j{next(self._job_seq):06d}"
        ev = self._evals.get(token)
        if ev is None:
            hit = await asyncio.get_running_loop().run_in_executor(
                None, self.store.get, request)
            # Re-check: a drain may have begun, or another submit queued
            # it, while the store read was off-loop.  A drain that finds
            # nothing in flight stops the workers, so a new evaluation
            # queued after it would never run.
            if self._draining:
                raise _HttpError(503, "server is draining")
            ev = self._evals.get(token)
            if ev is None and hit is not None:
                self.cache_hits += 1
                stored = _Evaluation(token=token, request=request)
                stored.finish(hit)
                job = _Job(id=job_id, evaluation=stored, cached=True)
                self._jobs[job_id] = job
                self._remember_done(job_id)
                return job
        if ev is not None:
            self.dedupe_joins += 1
        else:
            self.cache_misses += 1
            ev = _Evaluation(token=token, request=request)
            self._evals[token] = ev
            self._queue.put_nowait(ev)
        ev.job_ids.append(job_id)
        job = _Job(id=job_id, evaluation=ev)
        self._jobs[job_id] = job
        return job

    # ---------------------------------------------------------------- #
    # Stats.
    # ---------------------------------------------------------------- #

    def stats_view(self) -> Dict[str, object]:
        """The ``/v1/stats`` payload (store sizes read separately)."""
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            state = job.evaluation.state
            by_state[state] = by_state.get(state, 0) + 1
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
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    await self._respond(writer, exc.status,
                                        {"error": exc.message},
                                        keep_alive=False)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                try:
                    status, payload = await self._route(
                        method.upper(), target, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except Exception as exc:  # noqa: BLE001 — 500, not crash
                    status, payload = (
                        500, {"error": f"{type(exc).__name__}: {exc}"})
                self.requests_served += 1
                await self._respond(writer, status, payload, keep_alive)
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
                       payload, keep_alive: bool = True) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   500: "Internal Server Error",
                   503: "Service Unavailable"}
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            ctype = "application/octet-stream"
        else:
            body = (json.dumps(_json_safe(payload), sort_keys=True)
                    + "\n").encode()
            ctype = "application/json"
        lines = [f"HTTP/1.1 {status} {reasons.get(status, 'Status')}",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}",
                 f"Content-Type: {ctype}"]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    async def _route(self, method: str, target: str, body: bytes):
        """Dispatch one request; returns ``(status, payload)``."""
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}

        if path == "/v1/health" and method == "GET":
            return 200, {"status": "ok", "draining": self._draining}
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
            return 200, view
        if path == "/v1/tasks" and method == "POST":
            job = await self._submit(_parse_request(_parse_json(body)))
            await self._wait_for(job, query)
            return 200, {"job": job.view()}
        if path.startswith("/v1/jobs/"):
            return await self._route_job(method, path, query)
        raise _HttpError(404, f"no route for {method} {path}")

    async def _route_job(self, method: str, path: str,
                         query: Dict[str, str]):
        tail = path[len("/v1/jobs/"):]
        job_id, _sep, sub = tail.partition("/")
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if method != "GET":
            raise _HttpError(405, f"{method} not allowed here")
        ev = job.evaluation
        if sub == "result":
            if ev.outcome is None:
                raise _HttpError(409, f"job {job_id} is {ev.state}")
            loop = asyncio.get_running_loop()
            payload = None
            if ev.outcome.ok:
                payload = await loop.run_in_executor(
                    None, self.store.get_bytes, ev.token)
            if payload is None:
                # Not stored (an error, or a disabled store): a flow
                # result's dump takes long enough to stall every other
                # request if it ran on the event loop.
                payload = await loop.run_in_executor(
                    None, canonical_dumps, ev.outcome.canonical())
            return 200, payload
        if sub:
            raise _HttpError(404, f"no route for job sub-path {sub!r}")
        await self._wait_for(job, query)
        return 200, {"job": job.view()}

    async def _wait_for(self, job: _Job,
                        query: Dict[str, str]) -> None:
        """Long-poll (``?wait=1``) until the job finishes or
        ``timeout_s`` passes; returns at once otherwise."""
        if query.get("wait") not in ("1", "true") \
                or job.evaluation.finished.is_set():
            return
        try:
            timeout = float(query.get("timeout_s", "30"))
        except ValueError:
            raise _HttpError(400, "timeout_s must be a number")
        try:
            await asyncio.wait_for(job.evaluation.finished.wait(),
                                   timeout=max(0.0, timeout))
        except asyncio.TimeoutError:
            pass  # long-poll timeout: report the current state


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """Read one request as ``(method, target, headers, body)``;
    ``None`` once the client has nothing more to send.

    Raises:
        _HttpError: 400 for a head that cannot be parsed.
    """
    try:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, target, _version = \
                request_line.decode("ascii").split()
        except ValueError:
            raise _HttpError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError:  # asyncio's stream limit: a line over 64 KiB
        raise _HttpError(400, "request head line too long")
    length = headers.get("content-length", "0") or "0"
    if not (length.isascii() and length.isdigit()):
        raise _HttpError(400, f"bad Content-Length {length!r}")
    body = await reader.readexactly(int(length))
    return method, target, headers, body


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
