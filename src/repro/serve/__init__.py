"""Async flow-evaluation service with a content-addressed cache tier.

``repro.serve`` turns the repro flow into a long-lived evaluation
service: an asyncio HTTP/JSON server (stdlib only) that schedules flow
tasks and stage evaluations onto the persistent warm process pool,
dedupes identical in-flight requests across clients, and serves repeat
requests from the content-addressed result store
(:mod:`repro.core.store`) that CLI runs and local sweeps share.  Its
pool runs the one evaluation path a local sweep runs
(:func:`repro.dse.evaluate.evaluate_request`).

Start it with ``python -m repro serve`` and talk to it with
:class:`ServeClient`, or point a
:class:`~repro.dse.runner.SweepRunner` at it via ``server_url=``.
See ``docs/GUIDE.md`` §14.
"""

from .client import JobCancelled, JobHandle, ServeClient, ServeError
from .protocol import (EvalRequest, ServeResult, execute_request,
                       request_for_point)
from .server import (EvalServer, ServerConfig, ServerHandle,
                     run_server, start_in_thread)
from .store import ContentStore, StoreStats

__all__ = [
    "ContentStore",
    "EvalRequest",
    "EvalServer",
    "JobCancelled",
    "JobHandle",
    "ServeClient",
    "ServeError",
    "ServeResult",
    "ServerConfig",
    "ServerHandle",
    "StoreStats",
    "execute_request",
    "request_for_point",
    "run_server",
    "start_in_thread",
]
