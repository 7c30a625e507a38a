"""Wire types of the evaluation service and its worker entry point.

The request and result types, :class:`EvalRequest` and
:class:`ServeResult`, and the canonical pickler live in
:mod:`repro.core.request`, below the flow, the DSE and this service,
so every caller keys and stores results the same way; they are
re-exported here.  An :class:`EvalRequest` is the unit clients submit,
and its :meth:`~EvalRequest.cache_token` is the content address the
store and the in-flight deduper key on.  The token doubles as the HTTP
``ETag``.

:func:`execute_request` is the worker-side entry point (plain picklable
function, runs on the persistent process pool) producing a
:class:`ServeResult` — metrics or a structured error, never an
exception.  It evaluates directly: it reads neither the in-process
result cache nor the store, since the server looks a request up before
it queues it and stores what the pool returns.
:func:`request_for_point` maps a DSE sweep point to the request the
remote :class:`~repro.dse.runner.SweepRunner` path submits; both paths
run the same evaluator code, so served and locally evaluated points are
byte-identical.
"""

from __future__ import annotations

import time

from ..core.flow import run_flow_task
from ..core.request import EvalRequest, ServeResult, canonical_dumps
from ..dse.evaluate import evaluate_point, request_for_point
from ..dse.space import Axis, SweepSpec

__all__ = ["EvalRequest", "ServeResult", "canonical_dumps",
           "execute_request", "request_for_point"]


def _stage_sweep_and_params(request: EvalRequest):
    """The one-point sweep context a stage-evaluator request runs in."""
    sweep = SweepSpec(
        name="serve", design=request.design, evaluator=request.kind,
        axes=(Axis("design", values=(request.design,)),),
        scale=request.scale, seed=request.seed,
        target_frequency_mhz=request.target_frequency_mhz,
        length_um=request.length_um,
        with_eyes=request.with_eyes, with_thermal=request.with_thermal)
    params = dict(request.spec_overrides)
    params["num_chiplets"] = request.num_chiplets
    params["arrangement"] = request.arrangement
    return sweep, params


def execute_request(request: EvalRequest) -> ServeResult:
    """Evaluate one request directly; never raises.

    This is the function the server ships to its worker pool.  Flow
    requests run :func:`~repro.core.flow.run_flow_task` without its
    caches; stage requests run the matching DSE evaluator — the exact
    code a local sweep runs, so served metrics are byte-identical to
    direct evaluation.
    """
    t0 = time.perf_counter()
    try:
        request.validate()
        if request.kind == "flow":
            return run_flow_task(request, use_cache=False)
        sweep, params = _stage_sweep_and_params(request)
        metrics = dict(evaluate_point(sweep, params))
    except Exception as exc:  # noqa: BLE001 — structured capture
        return ServeResult.failure(request, exc, time.perf_counter() - t0)
    return ServeResult(request=request, metrics=metrics,
                       wall_s=time.perf_counter() - t0)
