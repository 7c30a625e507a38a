"""Wire types of the evaluation service and its worker entry point.

The request and result types, :class:`EvalRequest` and
:class:`ServeResult`, and the canonical pickler live in
:mod:`repro.core.request`, below the flow, the DSE and this service,
so every caller keys and stores results the same way; they are
re-exported here.  An :class:`EvalRequest` is the unit clients submit,
and its :meth:`~EvalRequest.cache_token` is the content address the
store and the in-flight deduper key on.  The token doubles as the job
view's ``etag``.

:func:`execute_request` is the worker-side entry point (plain picklable
function, runs on the persistent process pool) producing a
:class:`ServeResult` — metrics or a structured error, never an
exception.  It is :func:`~repro.dse.evaluate.evaluate_request`, the
function a local sweep runs for every point, which never touches the
store: the server looks a request up before it queues it and stores
what the pool returns.  :func:`request_for_point` (re-exported
from :mod:`repro.dse.space`) maps a DSE sweep point to the request the
remote :class:`~repro.dse.runner.SweepRunner` path submits, so served
and locally evaluated points are byte-identical.
"""

from __future__ import annotations

from ..core.request import EvalRequest, ServeResult, canonical_dumps
from ..dse.evaluate import evaluate_request
from ..dse.space import request_for_point

__all__ = ["EvalRequest", "ServeResult", "canonical_dumps",
           "execute_request", "request_for_point"]


def execute_request(request: EvalRequest) -> ServeResult:
    """Evaluate one request directly; never raises.

    This is the function the server ships to its worker pool: the one
    evaluation path (:func:`~repro.dse.evaluate.evaluate_request`), so
    served metrics are byte-identical to a local sweep's.
    """
    return evaluate_request(request)
