"""The result store's key, value and serializer.

An :class:`EvalRequest` is one evaluator invocation: the full co-design
flow (``kind="flow"``) or one of the cheap stage evaluators
(``"geometry"``, ``"link"``, ``"link_pdn"``) against a registered
design plus optional ``InterposerSpec`` field overrides.  Requests are
canonicalized when they are built (sorted overrides, alias-resolved
design names, a validated topology, and no link length on a flow
request, which never reads one), so equal work compares equal, and
:meth:`EvalRequest.cache_token` hashes the canonical form together with
:func:`code_version` into the one key every result is stored under —
by the CLI, local sweeps and the evaluation service alike.

A :class:`ServeResult` is the outcome of one request: metrics (and, for
the flow, the full ``DesignResult``) *or* a structured error.
:func:`canonical_dumps` serializes its deterministic portion
(:meth:`ServeResult.canonical`) to bytes that are a pure function of
the request.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import pickle
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

import numpy as np

from ..arch.topology import validate_topology
from ..tech.interposer import get_spec

if TYPE_CHECKING:
    from .flow import DesignResult

#: Request kinds (the flow and the DSE stage evaluators).
KINDS = ("flow", "geometry", "link", "link_pdn")

#: Canonical form of a ``spec_overrides`` mapping: a sorted item tuple.
OverridesKey = Tuple[Tuple[str, object], ...]

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the ``repro`` package source.

    Any source edit changes the hash, which invalidates every stored
    result written by older code — results can never go stale.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        pkg_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha1()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


@dataclass(frozen=True)
class EvalRequest:
    """One evaluator invocation, in canonical (hashable) form.

    Attributes:
        kind: Evaluator to run (see :data:`KINDS`).
        design: Registered design name (aliases resolve to the
            canonical name, which is part of the token).
        scale: Netlist scale (flow kind).
        seed: Determinism seed (flow kind).
        target_frequency_mhz: Chiplet timing target (flow kind).
        with_eyes: Run eye simulations (flow kind).
        with_thermal: Run the thermal solve (flow kind).
        length_um: Link length (link/link_pdn kinds; a flow request
            always holds the default, since the flow never reads it).
        spec_overrides: Sorted ``InterposerSpec`` field overrides.
        num_chiplets: Parts the system netlist splits into (flow and
            geometry kinds; see :mod:`repro.arch.topology`).
        arrangement: Chiplet arrangement on the interposer.

    Raises:
        ValueError: On an invalid ``(num_chiplets, arrangement)``.
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
        try:
            object.__setattr__(self, "design", get_spec(self.design).name)
        except KeyError:
            pass  # keep as-is; validate() and the flow report it
        count, arr = validate_topology(self.num_chiplets, self.arrangement)
        object.__setattr__(self, "num_chiplets", count)
        object.__setattr__(self, "arrangement", arr)
        if self.kind == "flow":
            object.__setattr__(self, "length_um", 2000.0)

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
        """Parse and validate a request dict; unknown keys raise."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown request keys: {', '.join(sorted(unknown))}")
        overrides = data.get("spec_overrides", ())
        if hasattr(overrides, "items"):
            overrides = overrides.items()
        req = cls(
            kind=str(data.get("kind", "flow")),
            design=str(data.get("design", "glass_25d")),
            scale=float(data.get("scale", 1.0)),
            seed=int(data.get("seed", 2023)),
            target_frequency_mhz=float(
                data.get("target_frequency_mhz", 700.0)),
            with_eyes=bool(data.get("with_eyes", True)),
            with_thermal=bool(data.get("with_thermal", True)),
            length_um=float(data.get("length_um", 2000.0)),
            spec_overrides=tuple((str(k), v) for k, v in overrides),
            num_chiplets=data.get("num_chiplets", 2),
            arrangement=data.get("arrangement", "grid"))
        req.validate()
        return req

    def canonical_json(self) -> str:
        """The canonical JSON string the cache token hashes."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def cache_token(self) -> str:
        """Content address of this request's result.

        Hashes the canonical request *and* the package code version, so
        a source edit invalidates every stored entry — results can
        never go stale across deploys.
        """
        digest = hashlib.sha256()
        digest.update(self.canonical_json().encode())
        digest.update(code_version().encode())
        return digest.hexdigest()[:32]


@dataclass
class ServeResult:
    """Outcome of one request: metrics *or* a structured error.

    Attributes:
        request: The request that produced this outcome.
        metrics: Flat metric record (every kind; ``None`` on error).
        result: The full :class:`DesignResult` (flow kind only).
        error_type: Exception class name on failure.
        error_message: ``str(exception)`` on failure.
        error_traceback: Full formatted traceback on failure.
        cached: Whether a cache (in memory or the store) served it.
        wall_s: Wall time spent on the request.
    """

    request: EvalRequest
    metrics: Optional[Dict[str, object]] = None
    result: Optional["DesignResult"] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    error_traceback: Optional[str] = None
    cached: bool = False
    wall_s: float = 0.0

    @classmethod
    def failure(cls, request: EvalRequest, exc: BaseException,
                wall_s: float = 0.0) -> "ServeResult":
        """The structured failure row of ``exc`` (never stored)."""
        return cls(request=request, error_type=type(exc).__name__,
                   error_message=str(exc),
                   error_traceback="".join(traceback.format_exception(
                       type(exc), exc, exc.__traceback__)),
                   wall_s=wall_s)

    @property
    def ok(self) -> bool:
        """Whether the request produced metrics."""
        return self.error_type is None

    def canonical(self) -> "ServeResult":
        """The deterministic portion — what the store persists.

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
    making stored payloads byte-stable: the store can promise that a
    stored result equals a directly evaluated one byte for byte.
    It saves one object at a time in Python, so its cost follows the
    object count: a chiplet ``Netlist`` pickles as arrays and packed
    name tables (``Netlist.__getstate__``), and an interposer
    ``RoutedNet`` its path as one array, to keep that count from
    growing with the instance count or the route length.

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
