"""Wire types of the evaluation service.

An :class:`EvalRequest` is the unit clients submit: one evaluator
invocation — the full co-design flow (``kind="flow"``) or one of the
cheap stage evaluators (``"geometry"``, ``"link"``, ``"link_pdn"``) —
against a registered design plus optional ``InterposerSpec`` field
overrides.  Requests are canonicalized (sorted overrides, alias-resolved
design names, plain floats) so that equal work compares equal, and
:meth:`EvalRequest.cache_token` hashes the canonical form together with
the package :func:`~repro.core.flow.code_version` into the
content-address the shared store and the in-flight deduper key on.  The
token doubles as the HTTP ``ETag``.

:func:`execute_request` is the worker-side entry point (plain picklable
function, runs on the persistent process pool) producing a
:class:`ServeResult` — metrics or a structured error, never an
exception.  :func:`request_for_point` maps a DSE sweep point to the
request the remote :class:`~repro.dse.runner.SweepRunner` path submits;
both paths run the same evaluator code, so served and locally evaluated
points are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..arch.topology import validate_topology
from ..core.flow import (DesignResult, FlowTaskSpec, OverridesKey,
                         code_version, run_flow_task)
from ..tech.interposer import get_spec

#: Request kinds the service evaluates (mirror the DSE evaluators).
KINDS = ("flow", "geometry", "link", "link_pdn")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "error", "cancelled")


@dataclass(frozen=True)
class EvalRequest:
    """One evaluator invocation, in canonical (hashable) form.

    Attributes:
        kind: Evaluator to run (see :data:`KINDS`).
        design: Registered design name (aliases are resolved in
            :meth:`from_dict`; the canonical name is part of the token).
        scale: Netlist scale (flow kind).
        seed: Determinism seed (flow kind).
        target_frequency_mhz: Chiplet timing target (flow kind).
        with_eyes: Run eye simulations (flow kind).
        with_thermal: Run the thermal solve (flow kind).
        length_um: Link length (link/link_pdn kinds).
        spec_overrides: Sorted ``InterposerSpec`` field overrides.
        num_chiplets: Parts the system netlist splits into (flow and
            geometry kinds; see :mod:`repro.arch.topology`).
        arrangement: Chiplet arrangement on the interposer.
    """

    kind: str = "flow"
    design: str = "glass_25d"
    scale: float = 1.0
    seed: int = 2023
    target_frequency_mhz: float = 700.0
    with_eyes: bool = True
    with_thermal: bool = True
    length_um: float = 2000.0
    spec_overrides: OverridesKey = ()
    num_chiplets: int = 2
    arrangement: str = "grid"

    def __post_init__(self):
        canonical = tuple(sorted(tuple(self.spec_overrides)))
        object.__setattr__(self, "spec_overrides", canonical)

    def validate(self) -> None:
        """Raises ``ValueError``/``KeyError`` on an ill-formed request."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; "
                             f"valid: {', '.join(KINDS)}")
        get_spec(self.design)  # KeyError on unknown designs
        for name in ("scale", "length_um", "target_frequency_mhz"):
            value = getattr(self, name)
            # NaN fails both comparisons, so it is rejected here too.
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be > 0 and finite, got {value}")
        validate_topology(self.num_chiplets, self.arrangement)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe dict (round-trips via :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "design": self.design,
            "scale": float(self.scale),
            "seed": int(self.seed),
            "target_frequency_mhz": float(self.target_frequency_mhz),
            "with_eyes": bool(self.with_eyes),
            "with_thermal": bool(self.with_thermal),
            "length_um": float(self.length_um),
            "spec_overrides": dict(self.spec_overrides),
            "num_chiplets": int(self.num_chiplets),
            "arrangement": str(self.arrangement),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EvalRequest":
        """Parse and canonicalize a request dict; unknown keys raise."""
        known = {"kind", "design", "scale", "seed",
                 "target_frequency_mhz", "with_eyes", "with_thermal",
                 "length_um", "spec_overrides", "num_chiplets",
                 "arrangement"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown request keys: {', '.join(sorted(unknown))}")
        overrides = data.get("spec_overrides", ())
        if hasattr(overrides, "items"):
            overrides = overrides.items()
        design = str(data.get("design", "glass_25d"))
        try:
            design = get_spec(design).name  # resolve aliases
        except KeyError:
            pass  # keep as-is; validate() reports it
        num_chiplets, arrangement = validate_topology(
            data.get("num_chiplets", 2), data.get("arrangement", "grid"))
        req = cls(
            kind=str(data.get("kind", "flow")),
            design=design,
            scale=float(data.get("scale", 1.0)),
            seed=int(data.get("seed", 2023)),
            target_frequency_mhz=float(
                data.get("target_frequency_mhz", 700.0)),
            with_eyes=bool(data.get("with_eyes", True)),
            with_thermal=bool(data.get("with_thermal", True)),
            length_um=float(data.get("length_um", 2000.0)),
            spec_overrides=tuple((str(k), v) for k, v in overrides),
            num_chiplets=num_chiplets, arrangement=arrangement)
        req.validate()
        return req

    def canonical_json(self) -> str:
        """The canonical JSON string the cache token hashes."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def cache_token(self) -> str:
        """Content address of this request's result.

        Hashes the canonical request *and* the package code version, so
        a source edit invalidates every served entry exactly like the
        flow disk cache — results can never go stale across deploys.
        """
        digest = hashlib.sha256()
        digest.update(self.canonical_json().encode())
        digest.update(code_version().encode())
        return digest.hexdigest()[:32]

    def flow_task(self) -> FlowTaskSpec:
        """The :class:`FlowTaskSpec` a ``kind="flow"`` request runs."""
        if self.kind != "flow":
            raise ValueError(f"request kind {self.kind!r} is not a "
                             f"flow task")
        return FlowTaskSpec(
            design=self.design, scale=self.scale, seed=self.seed,
            target_frequency_mhz=self.target_frequency_mhz,
            with_eyes=self.with_eyes, with_thermal=self.with_thermal,
            spec_overrides=self.spec_overrides,
            num_chiplets=self.num_chiplets, arrangement=self.arrangement)


@dataclass
class ServeResult:
    """Outcome of one served request: metrics *or* a structured error.

    Attributes:
        request: The request that produced this outcome.
        metrics: Flat metric record (every kind; ``None`` on error).
        result: The full :class:`DesignResult` (flow kind only).
        error_type: Exception class name on failure.
        error_message: ``str(exception)`` on failure.
        error_traceback: Full formatted traceback on failure.
        cached: Whether a cache (flow cache or shared store) served it.
        wall_s: Wall time spent evaluating (0 for cache hits).
    """

    request: EvalRequest
    metrics: Optional[Dict[str, object]] = None
    result: Optional[DesignResult] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    error_traceback: Optional[str] = None
    cached: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the request produced metrics."""
        return self.error_type is None

    def canonical(self) -> "ServeResult":
        """The deterministic portion — what the shared store persists.

        Wall time, cache provenance, and a flow result's record of how
        its run went (``stage_times``, ``solver_stats``,
        ``stage_solver_stats`` and the router's phase timers) vary run
        to run, so they are cleared; everything else is a pure function
        of the request (and the code version baked into its token).
        """
        result = self.result
        if result is not None:
            route = result.route
            if route is not None and route.stats is not None:
                route = dataclasses.replace(route, stats=dataclasses.replace(
                    route.stats, pattern_time_s=0.0, rrr_time_s=0.0,
                    maze_time_s=0.0))
            result = dataclasses.replace(
                result, route=route, stage_times=None, solver_stats=None,
                stage_solver_stats=None)
        return dataclasses.replace(self, result=result, cached=False,
                                   wall_s=0.0)


class _CanonicalPickler(pickle._Pickler):
    """Pickler whose output is a pure function of the object's *value*.

    Plain ``pickle.dumps`` is not: set iteration order depends on
    insertion history, and memo-based sharing of strings and numpy
    dtypes depends on object identity — so two value-equal
    ``DesignResult`` graphs of different provenance (fresh vs.
    unpickled, where each array carries its own unpickled dtype)
    serialize differently.  This pickler sorts sets and routes every
    equal string and every equal dtype through one representative,
    making stored payloads byte-stable: the shared store can promise
    that served results equal directly evaluated ones byte for byte.
    It saves one object at a time in Python, so its cost follows the
    object count: a chiplet ``Netlist`` pickles as arrays and packed
    name tables (``Netlist.__getstate__``) to keep that count from
    growing with the instance count.

    The pure-Python pickler base is required — the C implementation
    does not consult ``reducer_override`` for builtin containers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._strings: Dict[str, str] = {}
        self._dtypes: Dict[np.dtype, np.dtype] = {}

    def reducer_override(self, obj):
        if type(obj) in (set, frozenset):
            try:
                return (type(obj), (sorted(obj),))
            except TypeError:
                return NotImplemented  # unorderable: plain pickling
        return NotImplemented

    def save(self, obj, save_persistent_id=True):
        if type(obj) is str:
            obj = self._strings.setdefault(obj, obj)
        elif isinstance(obj, np.dtype):
            obj = self._dtypes.setdefault(obj, obj)
        return super().save(obj, save_persistent_id)

    def save_picklebuffer(self, obj):
        # The base class writes an array's buffer in band and memoizes
        # the bytes ``tobytes()`` returned; CPython returns one shared
        # object for every empty buffer, so a second empty array failed
        # memoize's assertion, and a later ``b''`` pickled as a memo
        # reference to the first array's bytearray.  A fresh copy writes
        # the same opcodes and data under a memo key nothing else has.
        with obj.raw() as m:
            if m.contiguous:
                data = bytearray(m)
                if m.readonly:
                    self.save_bytes(data)
                else:
                    self.save_bytearray(data)
                return
        super().save_picklebuffer(obj)  # raises on the layout

    # ``save`` looks its savers up in this table, not on the instance.
    dispatch = {**pickle._Pickler.dispatch,
                pickle.PickleBuffer: save_picklebuffer}


def canonical_dumps(obj) -> bytes:
    """Deterministically pickle ``obj`` (see :class:`_CanonicalPickler`)."""
    buf = io.BytesIO()
    _CanonicalPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def _stage_sweep_and_params(request: EvalRequest):
    """The one-point sweep context a stage-evaluator request runs in."""
    from ..dse.space import Axis, SweepSpec
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
    """Evaluate one request; never raises.

    This is the function the server ships to its worker pool.  Flow
    requests go through :func:`~repro.core.flow.run_flow_task` (and its
    cache layers); stage requests run the matching DSE evaluator — the
    exact code a local sweep runs, so served metrics are byte-identical
    to direct evaluation.
    """
    t0 = time.perf_counter()
    try:
        request.validate()
        if request.kind == "flow":
            out = run_flow_task(request.flow_task())
            if not out.ok:
                return ServeResult(
                    request=request, error_type=out.error_type,
                    error_message=out.error_message,
                    error_traceback=out.error_traceback,
                    wall_s=time.perf_counter() - t0)
            from ..dse.evaluate import flow_metrics
            metrics = dict(flow_metrics(out.result),
                           design=request.design)
            return ServeResult(request=request, metrics=metrics,
                               result=out.result, cached=out.cached,
                               wall_s=time.perf_counter() - t0)
        from ..dse.evaluate import evaluate_point
        sweep, params = _stage_sweep_and_params(request)
        metrics = dict(evaluate_point(sweep, params))
        metrics.pop("_cached", None)
        return ServeResult(request=request, metrics=metrics,
                           wall_s=time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 — structured capture
        import traceback as traceback_module
        return ServeResult(
            request=request, error_type=type(exc).__name__,
            error_message=str(exc),
            error_traceback=traceback_module.format_exc(),
            wall_s=time.perf_counter() - t0)


def request_for_point(sweep, params: Mapping[str, object]
                      ) -> EvalRequest:
    """The request a DSE sweep point maps to (remote runner path).

    Tied axis fields are expanded here, client-side, exactly as the
    local evaluators expand them — the server never needs the sweep's
    axis definitions.
    """
    from ..dse.evaluate import split_params
    flow, overrides = split_params(sweep, params)
    return EvalRequest(
        kind=sweep.evaluator,
        design=get_spec(str(flow.get("design", sweep.design))).name,
        scale=float(flow.get("scale", sweep.scale)),
        seed=int(flow.get("seed", sweep.seed)),
        target_frequency_mhz=float(flow.get("target_frequency_mhz",
                                            sweep.target_frequency_mhz)),
        with_eyes=sweep.with_eyes,
        with_thermal=sweep.with_thermal,
        length_um=float(flow.get("length_um", sweep.length_um)),
        spec_overrides=tuple(sorted(overrides.items())),
        num_chiplets=int(flow.get("num_chiplets", 2)),
        arrangement=str(flow.get("arrangement", "grid")))
