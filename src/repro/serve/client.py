"""Client library for the evaluation service.

:class:`ServeClient` is a blocking client — ``http.client`` over a
kept-alive connection, safe to use from worker threads (one client per
thread).  It covers the whole protocol: health and stats, submit one
request, long-poll job state, and fetch the full pickled
:class:`ServeResult` (bit-exact metrics and, for flow tasks, the
complete ``DesignResult``).

Results move as pickles of the server's canonical stored bytes, so a
served evaluation is byte-identical to a direct local one — the
property the remote :class:`~repro.dse.runner.SweepRunner` path's
byte-stable stores rest on.
"""

from __future__ import annotations

import http.client
import json
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union
from urllib.parse import urlsplit

from .protocol import EvalRequest, ServeResult

#: Default deadline for :meth:`ServeClient.result` (seconds).
DEFAULT_RESULT_TIMEOUT_S = 600.0

#: Long-poll slice per job-state request (seconds).
POLL_SLICE_S = 10.0


class ServeError(RuntimeError):
    """The server answered with an error status.

    Attributes:
        status: HTTP status code.
    """

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


@dataclass
class JobHandle:
    """A submitted job as the client sees it.

    Attributes:
        job_id: Server-assigned job identifier.
        etag: The request's cache token (its content address).
        state: Last observed lifecycle state.
        cached: Whether the shared tier served it at submit time.
        view: The full last observed job view (metrics included once
            the job is done).
    """

    job_id: str
    etag: str
    state: str
    cached: bool
    view: Dict[str, object]

    @classmethod
    def from_view(cls, view: Dict[str, object]) -> "JobHandle":
        return cls(job_id=str(view["id"]), etag=str(view["etag"]),
                   state=str(view["state"]),
                   cached=bool(view.get("cached", False)), view=view)


def _as_request(request: Union[EvalRequest, Dict[str, object]]
                ) -> EvalRequest:
    if isinstance(request, EvalRequest):
        return request
    return EvalRequest.from_dict(request)


class ServeClient:
    """Blocking client over one kept-alive HTTP connection.

    Args:
        url: Server base URL, e.g. ``http://127.0.0.1:8321``.
        timeout: Socket timeout per HTTP round trip (must exceed the
            long-poll slice).
    """

    def __init__(self, url: str, timeout: float = 60.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ---------------------------------------------------------------- #
    # Transport.
    # ---------------------------------------------------------------- #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None):
        """One round trip; reconnects once on a dropped keep-alive."""
        payload = (json.dumps(body).encode()
                   if body is not None else None)
        send_headers = ({"Content-Type": "application/json"}
                        if payload is not None else {})
        for attempt in range(2):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload,
                             headers=send_headers)
                response = conn.getresponse()
                data = response.read()
                return response.status, dict(response.getheaders()), data
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, object]] = None
              ) -> Dict[str, object]:
        status, _headers, data = self._request(method, path, body)
        decoded = json.loads(data.decode()) if data else {}
        if status >= 400:
            raise ServeError(status,
                             str(decoded.get("error", data[:200])))
        return decoded

    # ---------------------------------------------------------------- #
    # Service surface.
    # ---------------------------------------------------------------- #

    def health(self) -> Dict[str, object]:
        """``GET /v1/health``."""
        return self._json("GET", "/v1/health")

    def stats(self) -> Dict[str, object]:
        """``GET /v1/stats``."""
        return self._json("GET", "/v1/stats")

    def submit(self, request: Union[EvalRequest, Dict[str, object]],
               wait: bool = False,
               timeout_s: float = POLL_SLICE_S) -> JobHandle:
        """Submit one request; returns its job handle.

        ``wait=True`` long-polls on the server so a finished job comes
        back in one round trip (cache hits always do).
        """
        body = _as_request(request).to_dict()
        path = "/v1/tasks"
        if wait:
            path += f"?wait=1&timeout_s={timeout_s}"
        return JobHandle.from_view(
            self._json("POST", path, body)["job"])

    def job(self, job_id: str, wait: bool = False,
            timeout_s: float = POLL_SLICE_S) -> JobHandle:
        """Current job view; ``wait=True`` long-polls for completion."""
        path = f"/v1/jobs/{job_id}"
        if wait:
            path += f"?wait=1&timeout_s={timeout_s}"
        return JobHandle.from_view(self._json("GET", path)["job"])

    def result(self, job_id: str,
               timeout_s: float = DEFAULT_RESULT_TIMEOUT_S
               ) -> ServeResult:
        """Wait for a job and fetch its full :class:`ServeResult`.

        Raises:
            TimeoutError: The deadline passed with the job unfinished.
        """
        deadline = time.monotonic() + timeout_s
        handle = self.job(job_id)
        while handle.state not in ("done", "error"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {handle.state} after "
                    f"{timeout_s:.1f}s")
            handle = self.job(job_id, wait=True,
                              timeout_s=min(POLL_SLICE_S, remaining))
        status, _headers, data = self._request(
            "GET", f"/v1/jobs/{job_id}/result")
        if status >= 400:
            raise ServeError(status, data.decode(errors="replace")[:200])
        out = pickle.loads(data)
        # Cache provenance and timing are job-level facts (the stored
        # canonical payload deliberately zeroes them).
        out.cached = handle.cached
        out.wall_s = float(handle.view.get("wall_s", 0.0) or 0.0)
        return out

    def evaluate(self, request: Union[EvalRequest, Dict[str, object]],
                 timeout_s: float = DEFAULT_RESULT_TIMEOUT_S
                 ) -> ServeResult:
        """Submit one request and block for its full result."""
        handle = self.submit(request, wait=True)
        return self.result(handle.job_id, timeout_s=timeout_s)
