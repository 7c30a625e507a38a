"""Declarative sweep spaces for design-space exploration.

A :class:`SweepSpec` names the axes of a sweep — ``InterposerSpec``
fields (bump pitch, wire width, dielectric thickness, ...) and flow
parameters (design name, netlist scale, seed, clock target) — and how to
sample them: full ``grid``, seeded uniform ``random``, or seeded
Latin-hypercube (``lhs``).  Point generation is fully deterministic in
the spec, so an interrupted sweep can be resumed and will regenerate the
exact same point list; :meth:`SweepSpec.spec_hash` is the identity the
result store checks on resume.

Specs round-trip through plain dicts (:meth:`SweepSpec.to_dict` /
:meth:`SweepSpec.from_dict`) and load from YAML or JSON files
(:meth:`SweepSpec.from_file`) — see ``examples/spaces/`` for the file
format.

A spec may also carry a ``subset`` — a sorted tuple of indices into the
full point list — which restricts :meth:`SweepSpec.points` to those
points while keeping their original identities
(:meth:`SweepSpec.point_id` returns the *parent* index).  This is how
the multi-fidelity runner (:mod:`repro.dse.fidelity`) expresses
"re-evaluate only the promoted points at the next fidelity" as a plain
resumable sweep whose manifest records the promotion decision.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..arch.topology import validate_topology
from ..tech.interposer import InterposerSpec, get_spec

#: Flow-level parameters an axis may target (everything else must be an
#: ``InterposerSpec`` field).  ``length_um`` feeds the link evaluators;
#: ``num_chiplets``/``arrangement`` are the N-chiplet topology axes
#: (see :mod:`repro.arch.topology`).
FLOW_AXIS_PARAMS = frozenset({
    "design", "scale", "seed", "target_frequency_mhz", "length_um",
    "num_chiplets", "arrangement",
})

#: Spec fields that cannot be swept (identity/enum fields).
PROTECTED_SPEC_FIELDS = frozenset({"name", "display_name", "style",
                                   "routing"})

SAMPLERS = ("grid", "random", "lhs")


def _is_spec_field(name: str) -> bool:
    return name in InterposerSpec.__dataclass_fields__


@dataclass(frozen=True)
class Axis:
    """One named dimension of a sweep space.

    Either an explicit value list (``values``) or a numeric range
    (``lo``/``hi`` with ``num`` grid points, optionally log-spaced).

    Attributes:
        name: Target parameter — a flow parameter (see
            :data:`FLOW_AXIS_PARAMS`) or an ``InterposerSpec`` field.
        values: Explicit values (numeric or categorical, e.g. design
            names).  Mutually exclusive with ``lo``/``hi``.
        lo: Range lower bound.
        hi: Range upper bound.
        num: Grid points for a range axis (ignored by random/LHS
            sampling, which draw from the continuous range).
        log: Sample the range in log space.
        tied: Further spec fields that receive this axis's value (e.g.
            sweep ``min_wire_width_um`` with ``min_wire_space_um`` tied
            to keep min-pitch routing).
    """

    name: str
    values: Optional[Tuple[object, ...]] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    num: int = 0
    log: bool = False
    tied: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "tied", tuple(self.tied))

    def validate(self) -> None:
        """Raises ``ValueError`` if the axis is ill-formed."""
        if self.name not in FLOW_AXIS_PARAMS and not _is_spec_field(self.name):
            raise ValueError(
                f"axis {self.name!r} is neither a flow parameter "
                f"({', '.join(sorted(FLOW_AXIS_PARAMS))}) nor an "
                f"InterposerSpec field")
        if self.name in PROTECTED_SPEC_FIELDS:
            raise ValueError(f"axis {self.name!r} targets a protected field")
        if self.tied and self.name in FLOW_AXIS_PARAMS:
            raise ValueError(
                f"axis {self.name!r}: tied fields only apply to "
                f"InterposerSpec-field axes, not flow parameters")
        for t in self.tied:
            if not _is_spec_field(t) or t in PROTECTED_SPEC_FIELDS:
                raise ValueError(f"axis {self.name!r}: bad tied field {t!r}")
        if self.values is not None:
            if not self.values:
                raise ValueError(f"axis {self.name!r}: empty value list")
            if self.lo is not None or self.hi is not None:
                raise ValueError(
                    f"axis {self.name!r}: give values or lo/hi, not both")
        else:
            if self.lo is None or self.hi is None:
                raise ValueError(
                    f"axis {self.name!r}: needs values or a lo/hi range")
            if not self.hi > self.lo:
                raise ValueError(f"axis {self.name!r}: hi must exceed lo")
            if self.log and self.lo <= 0:
                raise ValueError(f"axis {self.name!r}: log range needs lo>0")
        if self.name == "design":
            for v in self.values or ():
                get_spec(str(v))  # raises KeyError on unknown names
        if self.name == "num_chiplets":
            for v in self.values or ():
                validate_topology(v, "grid")
        if self.name == "arrangement":
            for v in self.values or ():
                validate_topology(2, v)

    def grid_values(self) -> Tuple[object, ...]:
        """The axis's grid: explicit values, or ``num`` range samples."""
        if self.values is not None:
            return self.values
        if self.num < 2:
            raise ValueError(
                f"axis {self.name!r}: range axis needs num >= 2 for a grid")
        if self.log:
            pts = np.geomspace(self.lo, self.hi, self.num)
        else:
            pts = np.linspace(self.lo, self.hi, self.num)
        return tuple(float(p) for p in pts)

    def from_unit(self, u: float) -> object:
        """Map ``u`` in [0, 1) to an axis value (random/LHS sampling).

        Explicit value lists are sampled by index; ranges continuously.
        """
        if self.values is not None:
            idx = min(int(u * len(self.values)), len(self.values) - 1)
            return self.values[idx]
        if self.log:
            lo, hi = np.log(self.lo), np.log(self.hi)
            return float(np.exp(lo + u * (hi - lo)))
        return float(self.lo + u * (self.hi - self.lo))


def _canonical_value(v: object) -> object:
    """JSON-safe canonical form of an axis value (no numpy scalars)."""
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: axes, sampler, evaluator, and flow defaults.

    Attributes:
        name: Sweep name; also the default result-store directory name.
        axes: The swept dimensions.
        design: Base design point for axes that don't sweep ``design``.
        evaluator: Metric evaluator (see ``repro.dse.evaluate``):
            ``"flow"`` (full co-design flow), ``"geometry"``,
            ``"link"``, or ``"link_pdn"`` (cheap single-stage models).
        sampler: ``"grid"``, ``"random"``, or ``"lhs"``.
        num_samples: Sample count for random/LHS (grid ignores it).
        seed: RNG seed for random/LHS *and* the flow determinism seed
            default.
        scale: Netlist scale for flow-evaluator points.
        target_frequency_mhz: Chiplet timing target default.
        length_um: Link length default for the link evaluators.
        with_eyes: Run eye simulations in flow-evaluator points.
        with_thermal: Run the thermal solve in flow-evaluator points.
        objectives: Optional Pareto objectives as ``(metric, sense)``
            pairs, sense ``"min"`` or ``"max"`` — consumed by the CLI
            and ``repro.dse.analyze.pareto_front``.
        subset: Optional sorted index tuple restricting the sweep to a
            subset of the full point list (multi-fidelity promotion).
            ``None`` sweeps every point.
    """

    name: str
    axes: Tuple[Axis, ...]
    design: str = "glass_25d"
    evaluator: str = "flow"
    sampler: str = "grid"
    num_samples: int = 0
    seed: int = 2023
    scale: float = 0.1
    target_frequency_mhz: float = 700.0
    length_um: float = 2000.0
    with_eyes: bool = False
    with_thermal: bool = False
    objectives: Tuple[Tuple[str, str], ...] = ()
    subset: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        pairs = (self.objectives.items()
                 if hasattr(self.objectives, "items")
                 else self.objectives)
        object.__setattr__(self, "objectives",
                           tuple((str(m), str(s)) for m, s in pairs))
        if self.subset is not None:
            object.__setattr__(self, "subset",
                               tuple(int(i) for i in self.subset))

    def validate(self) -> None:
        """Raises ``ValueError`` on an ill-formed spec."""
        from .evaluate import EVALUATORS  # local: avoid import cycle
        if not self.name:
            raise ValueError("sweep needs a name")
        if not self.axes:
            raise ValueError("sweep needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")
        for axis in self.axes:
            axis.validate()
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; "
                             f"valid: {', '.join(SAMPLERS)}")
        if self.evaluator not in EVALUATORS:
            raise ValueError(
                f"unknown evaluator {self.evaluator!r}; valid: "
                f"{', '.join(sorted(EVALUATORS))}")
        if self.sampler in ("random", "lhs") and self.num_samples < 1:
            raise ValueError(
                f"{self.sampler} sampling needs num_samples >= 1")
        for metric, sense in self.objectives:
            if sense not in ("min", "max"):
                raise ValueError(
                    f"objective {metric!r}: sense must be min or max, "
                    f"got {sense!r}")
        if self.subset is not None:
            if not self.subset:
                raise ValueError("subset must not be empty (omit it to "
                                 "sweep every point)")
            if list(self.subset) != sorted(set(self.subset)):
                raise ValueError(
                    f"subset must be strictly increasing, got "
                    f"{self.subset}")
            if self.subset[0] < 0:
                raise ValueError(f"subset has negative index "
                                 f"{self.subset[0]}")

    # ---------------------------------------------------------------- #
    # Point generation (deterministic in the spec).
    # ---------------------------------------------------------------- #

    def points(self) -> List[Dict[str, object]]:
        """The sweep's point list: one params dict per point, in order.

        Grid sampling takes the cartesian product of the axis grids in
        axis order; random and LHS draw ``num_samples`` points from a
        ``numpy`` generator seeded with ``seed``, so the list is
        reproducible — the property resume depends on.  When ``subset``
        is set, only the selected points are returned (in subset
        order); :meth:`point_id` still names them by their index in the
        full list.
        """
        self.validate()
        base = self._base_points()
        if self.subset is None:
            return base
        if self.subset[-1] >= len(base):
            raise ValueError(
                f"subset index {self.subset[-1]} out of range for a "
                f"{len(base)}-point sweep")
        return [base[i] for i in self.subset]

    def _base_points(self) -> List[Dict[str, object]]:
        """The unrestricted point list (ignores ``subset``)."""
        if self.sampler == "grid":
            grids = [a.grid_values() for a in self.axes]
            combos = itertools.product(*grids)
            return [
                {a.name: _canonical_value(v)
                 for a, v in zip(self.axes, combo)}
                for combo in combos
            ]
        rng = np.random.default_rng(self.seed)
        n = self.num_samples
        unit = np.empty((n, len(self.axes)))
        if self.sampler == "random":
            unit[:] = rng.random((n, len(self.axes)))
        else:  # lhs: one sample per 1/n stratum of every axis
            for j in range(len(self.axes)):
                perm = rng.permutation(n)
                unit[:, j] = (perm + rng.random(n)) / n
        return [
            {a.name: _canonical_value(a.from_unit(unit[i, j]))
             for j, a in enumerate(self.axes)}
            for i in range(n)
        ]

    def point_id(self, index: int) -> str:
        """Stable identifier of the point at position ``index``.

        For a ``subset`` spec the identifier carries the point's index
        in the *full* point list, so the same physical design point
        keeps the same id at every fidelity rung.
        """
        if self.subset is not None:
            index = self.subset[index]
        return f"p{index:05d}"

    # ---------------------------------------------------------------- #
    # Serialization.
    # ---------------------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON/YAML-safe, round-trips through
        :meth:`from_dict`)."""
        axes = []
        for a in self.axes:
            entry: Dict[str, object] = {"name": a.name}
            if a.values is not None:
                entry["values"] = [_canonical_value(v) for v in a.values]
            else:
                entry["lo"] = a.lo
                entry["hi"] = a.hi
                if a.num:
                    entry["num"] = a.num
                if a.log:
                    entry["log"] = True
            if a.tied:
                entry["tied"] = list(a.tied)
            axes.append(entry)
        out: Dict[str, object] = {
            "name": self.name,
            "design": self.design,
            "evaluator": self.evaluator,
            "sampler": self.sampler,
            "seed": self.seed,
            "scale": self.scale,
            "target_frequency_mhz": self.target_frequency_mhz,
            "length_um": self.length_um,
            "with_eyes": self.with_eyes,
            "with_thermal": self.with_thermal,
            "axes": axes,
        }
        if self.num_samples:
            out["num_samples"] = self.num_samples
        if self.objectives:
            out["objectives"] = {m: s for m, s in self.objectives}
        if self.subset is not None:
            out["subset"] = list(self.subset)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Build a spec from the dict form (e.g. a parsed space file)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown sweep spec keys: {', '.join(sorted(unknown))}")
        axes = []
        for entry in data.get("axes", ()):
            if isinstance(entry, str):
                entry = {"name": entry}
            extra = set(entry) - {"name", "values", "lo", "hi", "num",
                                  "log", "tied"}
            if extra:
                raise ValueError(
                    f"axis {entry.get('name')!r}: unknown keys "
                    f"{', '.join(sorted(extra))}")
            axes.append(Axis(
                name=str(entry["name"]),
                values=(tuple(entry["values"])
                        if "values" in entry else None),
                lo=entry.get("lo"), hi=entry.get("hi"),
                num=int(entry.get("num", 0)),
                log=bool(entry.get("log", False)),
                tied=tuple(entry.get("tied", ()))))
        objectives = tuple(sorted(
            (str(m), str(s))
            for m, s in dict(data.get("objectives", {})).items()))
        kwargs: Dict[str, object] = {
            k: data[k] for k in known - {"axes", "objectives"}
            if k in data
        }
        if "design" in kwargs:
            # Accept get_spec-style aliases in space files.
            kwargs["design"] = get_spec(str(kwargs["design"])).name
        return cls(axes=tuple(axes), objectives=objectives, **kwargs)

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        """Load a space definition from a ``.yaml``/``.yml``/``.json``
        file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env-dependent
                raise RuntimeError(
                    "PyYAML is not installed; use a .json space file "
                    "or install pyyaml") from exc
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError(f"{path}: space file must hold a mapping")
        return cls.from_dict(data)

    def spec_hash(self) -> str:
        """Content hash identifying this sweep (resume checks it)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
