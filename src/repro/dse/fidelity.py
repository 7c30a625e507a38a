"""Multi-fidelity sweep execution: evaluator ladders with promotion.

Large packaging design spaces only become tractable when cheap
surrogate evaluations prune the space before full-flow signoff.  The
evaluator ladder this package already exposes — ``geometry`` (bump
planning + placement), ``link`` (transmission-line channel),
``link_pdn`` (+ PDN impedance), ``flow`` (the full co-design flow) —
is exactly that structure, and :class:`MultiFidelityRunner` exploits
it: every point of a :class:`~repro.dse.space.SweepSpec` is evaluated
at the cheapest rung, then only the *promoted* candidates (Pareto-front
members, top-k per objective, and/or a best-quantile per objective —
see :class:`PromotionPolicy`) climb to the next rung, ending with the
sweep's own evaluator (typically ``flow``).

Every rung is an ordinary resumable :class:`~repro.dse.runner.SweepRunner`
store in its own subdirectory (``rung0_link/``, ``rung1_link_pdn/``,
...): the rung's derived spec carries the promoted point indices as its
``subset``, so the promotion decision is recorded in that rung's
``manifest.json`` and validated on resume.  Promotion itself is a pure,
canonically-ordered function of the completed rung store, so a killed
run resumed with ``resume=True`` reproduces byte-identical stores, and
the per-rung pruning counts are both logged and persisted to
``fidelity.json`` — no silent caps.

Usage::

    from repro.dse import MultiFidelitySpec, MultiFidelityRunner

    mf = MultiFidelitySpec.from_file("examples/spaces/paper_pareto.yaml")
    result = MultiFidelityRunner(mf, jobs=4).run(resume=True)
    for line in result.funnel_lines():
        print(line)

or from the command line (a space file with a ``fidelity:`` block is
detected automatically)::

    python -m repro sweep --space examples/spaces/paper_pareto.yaml --jobs 4
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.request import KINDS
from .analyze import pareto_front
from .runner import SweepRunner, default_sweep_dir
from .space import SweepSpec

#: File the runner writes its ladder configuration and per-rung funnel
#: counts to (deterministic content; safe to diff across resumes).
FIDELITY_MANIFEST = "fidelity.json"


@dataclass(frozen=True)
class PromotionPolicy:
    """Which candidates survive a fidelity rung.

    The kept set is the *union* of the enabled selectors, so a policy
    can e.g. keep the whole surrogate Pareto front plus the top-2 of
    every single objective.  At least one selector must be enabled.

    Attributes:
        pareto: Keep the non-dominated set under the rung's objectives.
        top_k: Keep the best ``top_k`` points per objective (0 = off).
        quantile: Keep the best ``ceil(quantile * n)`` points per
            objective (0 = off; 1.0 keeps everything).
        group_by: Optional param name (e.g. ``"design"``); selection
            runs independently inside each group so a cheap rung never
            eliminates an entire technology before the full flow has
            scored it.
    """

    pareto: bool = False
    top_k: int = 0
    quantile: float = 0.0
    group_by: Optional[str] = None

    def validate(self) -> None:
        """Raises ``ValueError`` if no selector is enabled or a
        selector parameter is out of range."""
        if not (self.pareto or self.top_k or self.quantile):
            raise ValueError(
                "promotion policy needs at least one selector: pareto, "
                "top_k, or quantile")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in [0, 1], got {self.quantile}")

    def describe(self) -> str:
        """Compact human-readable form (logged per rung)."""
        parts = []
        if self.pareto:
            parts.append("pareto")
        if self.top_k:
            parts.append(f"top_k={self.top_k}")
        if self.quantile:
            parts.append(f"quantile={self.quantile:g}")
        if self.group_by:
            parts.append(f"per {self.group_by}")
        return " + ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (round-trips through :meth:`from_dict`)."""
        out: Dict[str, object] = {}
        if self.pareto:
            out["pareto"] = True
        if self.top_k:
            out["top_k"] = self.top_k
        if self.quantile:
            out["quantile"] = self.quantile
        if self.group_by:
            out["group_by"] = self.group_by
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PromotionPolicy":
        """Build a policy from the dict form used in space files."""
        unknown = set(data) - {"pareto", "top_k", "quantile", "group_by"}
        if unknown:
            raise ValueError(
                f"unknown promotion policy keys: "
                f"{', '.join(sorted(unknown))}")
        return cls(pareto=bool(data.get("pareto", False)),
                   top_k=int(data.get("top_k", 0)),
                   quantile=float(data.get("quantile", 0.0)),
                   group_by=(str(data["group_by"])
                             if data.get("group_by") else None))


@dataclass(frozen=True)
class FidelityRung:
    """One surrogate rung of the ladder: evaluator + proxy objectives
    + promotion policy.

    The rung's ``objectives`` must name metrics its ``evaluator``
    actually produces (``delay_ps`` for ``link``,
    ``interposer_area_mm2`` for ``geometry``, ...) — they are the cheap
    proxies for the sweep's final objectives.
    """

    evaluator: str
    objectives: Tuple[Tuple[str, str], ...]
    policy: PromotionPolicy

    def __post_init__(self):
        pairs = (self.objectives.items()
                 if hasattr(self.objectives, "items")
                 else self.objectives)
        object.__setattr__(self, "objectives",
                           tuple((str(m), str(s)) for m, s in pairs))

    def validate(self) -> None:
        """Raises ``ValueError`` on an ill-formed rung."""
        if self.evaluator not in KINDS:
            raise ValueError(
                f"rung evaluator {self.evaluator!r} unknown; valid: "
                f"{', '.join(sorted(KINDS))}")
        if not self.objectives:
            raise ValueError(
                f"rung {self.evaluator!r}: needs at least one proxy "
                f"objective to rank candidates by")
        for metric, sense in self.objectives:
            if sense not in ("min", "max"):
                raise ValueError(
                    f"rung {self.evaluator!r} objective {metric!r}: "
                    f"sense must be min or max, got {sense!r}")
        self.policy.validate()

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (round-trips through :meth:`from_dict`)."""
        return {"evaluator": self.evaluator,
                "objectives": {m: s for m, s in self.objectives},
                "policy": self.policy.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FidelityRung":
        """Build a rung from the dict form used in space files."""
        unknown = set(data) - {"evaluator", "objectives", "policy"}
        if unknown:
            raise ValueError(f"unknown fidelity rung keys: "
                             f"{', '.join(sorted(unknown))}")
        if "evaluator" not in data:
            raise ValueError("fidelity rung needs an evaluator")
        objectives = tuple(sorted(
            (str(m), str(s))
            for m, s in dict(data.get("objectives", {})).items()))
        return cls(evaluator=str(data["evaluator"]),
                   objectives=objectives,
                   policy=PromotionPolicy.from_dict(
                       dict(data.get("policy", {}))))


@dataclass(frozen=True)
class MultiFidelitySpec:
    """A sweep plus its fidelity ladder.

    ``rungs`` are the cheap surrogate stages, cheapest first; the final
    rung is always the ``sweep`` itself (its own ``evaluator`` and
    ``objectives``), evaluated only on the points that survived every
    surrogate rung.
    """

    sweep: SweepSpec
    rungs: Tuple[FidelityRung, ...]

    def __post_init__(self):
        object.__setattr__(self, "rungs", tuple(self.rungs))

    def validate(self) -> None:
        """Raises ``ValueError`` on an ill-formed ladder, or on a point
        that one of its evaluators would refuse."""
        self.sweep.validate()
        if self.sweep.subset is not None:
            raise ValueError(
                "a multi-fidelity sweep starts from the full space; "
                "its spec must not carry a subset")
        if not self.rungs:
            raise ValueError(
                "multi-fidelity spec needs at least one surrogate rung "
                "(otherwise run a plain sweep)")
        if not self.sweep.objectives:
            raise ValueError(
                "multi-fidelity spec needs final objectives on the "
                "sweep (they define the Pareto front the ladder is "
                "climbing toward)")
        for rung in self.rungs:
            rung.validate()
            dataclasses.replace(self.sweep,
                                evaluator=rung.evaluator).validate()

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: the sweep's dict plus a ``fidelity`` block."""
        out = self.sweep.to_dict()
        out["fidelity"] = {"rungs": [r.to_dict() for r in self.rungs]}
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MultiFidelitySpec":
        """Build from a space-file mapping carrying a ``fidelity`` block."""
        data = dict(data)
        fidelity = dict(data.pop("fidelity", None) or {})
        unknown = set(fidelity) - {"rungs"}
        if unknown:
            raise ValueError(f"unknown fidelity keys: "
                             f"{', '.join(sorted(unknown))}")
        rungs = tuple(FidelityRung.from_dict(dict(r))
                      for r in fidelity.get("rungs", ()))
        return cls(sweep=SweepSpec.from_dict(data), rungs=rungs)

    @classmethod
    def from_file(cls, path) -> "MultiFidelitySpec":
        """Load a ``fidelity:``-carrying space file (YAML or JSON)."""
        data = _load_space_mapping(path)
        if not data.get("fidelity"):
            raise ValueError(
                f"{path}: no fidelity block; load it with "
                f"SweepSpec.from_file as a plain sweep")
        return cls.from_dict(data)


def _load_space_mapping(path) -> Dict[str, object]:
    """Parse a space file into a plain mapping (YAML or JSON)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise RuntimeError(
                "PyYAML is not installed; use a .json space file or "
                "install pyyaml") from exc
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: space file must hold a mapping")
    return dict(data)


def load_space(path) -> Tuple[SweepSpec, Optional["MultiFidelitySpec"]]:
    """Load a space file, detecting an optional ``fidelity`` block.

    Returns ``(sweep, multi_fidelity_spec_or_None)`` — the CLI's single
    entry point for both plain and multi-fidelity sweeps.
    """
    data = _load_space_mapping(path)
    if data.get("fidelity"):
        mf = MultiFidelitySpec.from_dict(data)
        return mf.sweep, mf
    return SweepSpec.from_dict(data), None


# --------------------------------------------------------------------- #
# Promotion: a pure function of a completed rung's records.
# --------------------------------------------------------------------- #


def promote(records: Sequence[Mapping[str, object]],
            objectives: Mapping[str, str],
            policy: PromotionPolicy) -> Tuple[List[int], Dict[str, int]]:
    """Select the surviving record positions of one fidelity rung.

    Args:
        records: The rung's point records, in store order.
        objectives: The rung's proxy objectives (metric -> sense).
        policy: Which candidates to keep.

    Returns:
        ``(positions, counts)`` — the kept positions into ``records``
        (strictly increasing: canonical order, deterministic under any
        tie) and a counts dict ``{"evaluated", "failed", "promoted",
        "pruned"}``.  Failed points (error rows) and points missing any
        proxy metric are never promoted; they count as pruned and are
        reported in ``counts["failed"]``.

    Ties are broken toward the lower store position, so promotion is a
    pure function of the (deterministic, canonically ordered) rung
    store — the property the byte-identical-resume guarantee rests on.
    """
    policy.validate()
    candidates: List[Tuple[int, Mapping[str, object]]] = []
    failed = 0
    for pos, record in enumerate(records):
        metrics = record.get("metrics")
        if record.get("error") is not None or metrics is None:
            failed += 1
            continue
        if any(metrics.get(m) is None for m in objectives):
            failed += 1
            continue
        candidates.append((pos, record))

    groups: Dict[object, List[Tuple[int, Mapping[str, object]]]] = {}
    if policy.group_by:
        for pos, record in candidates:
            key = record.get("params", {}).get(policy.group_by)
            groups.setdefault(key, []).append((pos, record))
    else:
        groups[None] = candidates

    kept: set = set()
    for group in groups.values():
        flats = [dict(r["metrics"], _pos=pos) for pos, r in group]
        if policy.pareto and flats:
            for row in pareto_front(flats, dict(objectives)):
                kept.add(row["_pos"])
        for metric, sense in objectives.items():
            take = 0
            if policy.top_k:
                take = max(take, policy.top_k)
            if policy.quantile:
                take = max(take, math.ceil(policy.quantile * len(flats)))
            if not take:
                continue
            sign = -1.0 if sense == "max" else 1.0
            ranked = sorted(flats, key=lambda r: (sign * r[metric],
                                                  r["_pos"]))
            for row in ranked[:take]:
                kept.add(row["_pos"])

    positions = sorted(kept)
    counts = {"evaluated": len(records), "failed": failed,
              "promoted": len(positions),
              "pruned": len(records) - len(positions)}
    return positions, counts


# --------------------------------------------------------------------- #
# The ladder runner.
# --------------------------------------------------------------------- #


@dataclass
class MultiFidelityResult:
    """Outcome of a :class:`MultiFidelityRunner` run.

    Attributes:
        records: Point records of the deepest rung that ran (the final
            evaluator's records when ``complete``).
        funnel: One dict per rung: ``{"rung", "evaluator", "dir",
            "objectives", "policy", "status", "evaluated", "failed",
            "promoted", "pruned", "survivors"}``.
        complete: Whether every rung (including the final one) finished.
        out_dir: The ladder's store directory.
    """

    records: List[Dict[str, object]]
    funnel: List[Dict[str, object]]
    complete: bool
    out_dir: Path

    def funnel_lines(self) -> List[str]:
        """Human-readable pruning log, one line per rung (no silent
        caps: every pruned count is reported)."""
        lines = []
        for entry in self.funnel:
            line = (f"rung {entry['rung']} ({entry['evaluator']}): "
                    f"{entry['evaluated']} evaluated")
            if entry["failed"]:
                line += f" ({entry['failed']} failed)"
            if entry.get("promoted") is not None:
                line += (f", {entry['promoted']} promoted, "
                         f"{entry['pruned']} pruned "
                         f"[{entry['policy']}]")
            elif entry.get("policy") is None:
                line += " [final fidelity]"
            if entry["status"] != "complete":
                line += " — INCOMPLETE"
            lines.append(line)
        return lines


class MultiFidelityRunner:
    """Execute a fidelity ladder with per-rung promotion.

    Args:
        spec: The ladder (sweep + surrogate rungs).
        out_dir: Ladder store directory; each rung gets a
            ``rung<i>_<evaluator>/`` subdirectory holding an ordinary
            :class:`~repro.dse.runner.SweepRunner` store.  Defaults to
            :func:`~repro.dse.runner.default_sweep_dir` of the sweep's
            name.
        jobs: Worker processes per rung.
        progress: Optional callback receiving per-point and per-rung
            progress lines.
    """

    def __init__(self, spec: MultiFidelitySpec,
                 out_dir: Optional[Path] = None,
                 jobs: int = 1,
                 progress: Optional[Callable[[str], None]] = None):
        spec.validate()
        self.spec = spec
        self.jobs = max(1, int(jobs))
        self.progress = progress
        self.out_dir = Path(out_dir) if out_dir is not None \
            else default_sweep_dir(spec.sweep.name)

    # ---------------------------------------------------------------- #
    # Rung derivation.
    # ---------------------------------------------------------------- #

    def ladder(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...],
                                   Optional[PromotionPolicy]]]:
        """The full rung sequence: surrogates then the final evaluator.

        Returns ``(evaluator, objectives, policy_or_None)`` triples;
        the final rung has no promotion policy (nothing follows it).
        """
        rungs = [(r.evaluator, r.objectives, r.policy)
                 for r in self.spec.rungs]
        rungs.append((self.spec.sweep.evaluator,
                      self.spec.sweep.objectives, None))
        return rungs

    def rung_dir_name(self, index: int, evaluator: str) -> str:
        """Store subdirectory name of rung ``index``."""
        return f"rung{index}_{evaluator}"

    def rung_spec(self, index: int, evaluator: str,
                  objectives: Tuple[Tuple[str, str], ...],
                  survivors: Optional[Tuple[int, ...]]) -> SweepSpec:
        """The derived (plain, resumable) sweep spec of one rung.

        The promoted indices become the rung spec's ``subset``, so the
        promotion decision is recorded in — and validated against — the
        rung store's own manifest.
        """
        return dataclasses.replace(
            self.spec.sweep,
            name=f"{self.spec.sweep.name}.rung{index}-{evaluator}",
            evaluator=evaluator,
            objectives=objectives,
            subset=survivors)

    # ---------------------------------------------------------------- #
    # Execution.
    # ---------------------------------------------------------------- #

    def run(self, resume: bool = False,
            limit: Optional[int] = None) -> MultiFidelityResult:
        """Run the ladder rung by rung.

        Args:
            resume: Resume every rung store and recompute only what is
                missing; promotion is recomputed (deterministically)
                from the completed stores, so an interrupted ladder
                resumed this way produces byte-identical rung stores.
            limit: Stop after computing this many *new* point
                evaluations across all rungs (tests use it to simulate
                a killed run).

        Returns:
            A :class:`MultiFidelityResult`; ``complete`` is ``False``
            when ``limit`` stopped the ladder early.
        """
        total = len(self.spec.sweep.points())
        budget = limit
        survivors: Optional[Tuple[int, ...]] = None  # None = all points
        funnel: List[Dict[str, object]] = []
        records: List[Dict[str, object]] = []
        complete = True

        ladder = self.ladder()
        for index, (evaluator, objectives, policy) in enumerate(ladder):
            rspec = self.rung_spec(index, evaluator, objectives,
                                   survivors)
            rung_dir = self.out_dir / self.rung_dir_name(index, evaluator)
            runner = SweepRunner(rspec, out_dir=rung_dir, jobs=self.jobs,
                                 progress=self.progress)
            expected = len(rspec.points())
            rung_limit = None
            if budget is not None:
                already = self._rows_on_disk(runner) if resume else 0
                rung_limit = min(expected, already + budget)
            records = runner.run(resume=resume, limit=rung_limit)
            if budget is not None:
                budget -= max(0, len(records) -
                              (already if resume else 0))

            entry: Dict[str, object] = {
                "rung": index,
                "evaluator": evaluator,
                "dir": self.rung_dir_name(index, evaluator),
                "objectives": {m: s for m, s in objectives},
                "policy": policy.describe() if policy else None,
                "status": ("complete" if len(records) == expected
                           else "incomplete"),
                "evaluated": len(records),
                "failed": sum(1 for r in records
                              if r.get("error") is not None),
                "promoted": None,
                "pruned": None,
                "survivors": None,
            }
            if len(records) < expected:
                complete = False
                funnel.append(entry)
                self._log(f"rung {index} ({evaluator}): stopped at "
                          f"{len(records)}/{expected} points")
                break

            if policy is not None:
                positions, counts = promote(records,
                                            dict(objectives), policy)
                if not positions:
                    raise ValueError(
                        f"rung {index} ({evaluator}): promotion kept "
                        f"no candidates — every point failed or the "
                        f"policy is degenerate")
                survivors = tuple(
                    rspec.subset[p] if rspec.subset is not None else p
                    for p in positions)
                entry["failed"] = counts["failed"]
                entry["promoted"] = counts["promoted"]
                entry["pruned"] = counts["pruned"]
                entry["survivors"] = [self.spec.sweep.point_id(i)
                                      for i in survivors]
            funnel.append(entry)
            self._log(MultiFidelityResult([], [entry], True,
                                          self.out_dir).funnel_lines()[0])

        result = MultiFidelityResult(records=records, funnel=funnel,
                                     complete=complete,
                                     out_dir=self.out_dir)
        self._write_manifest(result, total)
        return result

    # ---------------------------------------------------------------- #
    # Helpers.
    # ---------------------------------------------------------------- #

    def _rows_on_disk(self, runner: SweepRunner) -> int:
        """Completed rows already in a rung store (0 for a new one)."""
        path = runner.points_path
        if not path.exists():
            return 0
        with open(path) as fh:
            return sum(1 for line in fh if line.strip())

    def _log(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def _write_manifest(self, result: MultiFidelityResult,
                        total: int) -> None:
        """Persist ``fidelity.json`` — ladder config + funnel counts.

        The content is a deterministic function of the (deterministic)
        rung stores, so the file is byte-identical between an
        interrupted-then-resumed ladder and an uninterrupted one.
        """
        self.out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": self.spec.sweep.name,
            "spec": self.spec.sweep.to_dict(),
            "spec_hash": self.spec.sweep.spec_hash(),
            "total_points": total,
            "ladder": [r.to_dict() for r in self.spec.rungs],
            "funnel": result.funnel,
            "complete": result.complete,
        }
        (self.out_dir / FIDELITY_MANIFEST).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
