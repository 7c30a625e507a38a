"""Resumable sweep execution with a JSONL result store.

:class:`SweepRunner` fans the points of a :class:`~repro.dse.space.SweepSpec`
out over worker processes (the same process-pool pattern — and, for flow
points, the same result store — as
:func:`repro.core.flow.run_designs`) and checkpoints every completed
point to ``<out_dir>/points.jsonl``.  Killing a sweep and re-running
with ``resume=True`` recomputes nothing that is already on disk and
appends only the remaining points; because point generation, evaluation,
and serialization are all deterministic, the resumed store is
byte-identical to an uninterrupted run.

Store layout (``results/sweeps/<name>/`` by default)::

    manifest.json   {"name", "spec", "spec_hash", "total_points"}
    points.jsonl    one canonical-JSON record per completed point:
                    {"id", "index", "params", "metrics", "error"}
                    (metrics null on failure; error {"type","message"}
                    null on success)
    timings.jsonl   {"id", "wall_s", "cached", "deduped", "pool"} per
                    execution — wall times live here, outside the
                    deterministic store.  ``pool`` records whether the
                    point ran serially or on cold (just created) vs
                    warm (reused) pool workers; ``deduped`` marks points
                    that copied an identical in-flight point's result.
    errors.log      full tracebacks of failed points

Parallel fan-outs go through the persistent pool of
:mod:`repro.core.pool`, so every sweep after the first in a process (and
every rung of a multi-fidelity run) reuses warm, pre-imported workers.
Points with identical parameters are evaluated once per run — the later
duplicates copy the first occurrence's deterministic record, which is
what an actual evaluation would have produced.

Worker errors become structured failure rows instead of aborting the
sweep; the surviving points still complete and persist.
"""

from __future__ import annotations

import json
import time
import traceback as traceback_module
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.pool import get_pool, imap_retry
from ..tech.interposer import InterposerSpec
from .evaluate import (PointEvaluationError, evaluate_point,
                       request_for_point)
from .space import SweepSpec


def default_sweep_dir(name: str) -> Path:
    """``results/sweeps/<name>`` at the repository root."""
    return (Path(__file__).resolve().parents[3] / "results" / "sweeps"
            / name)


def _canonical_line(record: Dict[str, object]) -> str:
    """Canonical JSON encoding — the byte-stability of resume rests on
    this being a pure function of the record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def _sanitize(value: object) -> object:
    """JSON-safe metric value (non-finite floats become null)."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return float(value)  # numpy scalars etc.


def _evaluate_task(args: Tuple[SweepSpec, Optional[InterposerSpec], int,
                               Dict[str, object]]
                   ) -> Tuple[Dict[str, object], float, bool,
                              Optional[str]]:
    """Worker entry: evaluate one point, never raise.

    Returns ``(record, wall_s, cached, traceback_text)``; the record is
    the deterministic row destined for ``points.jsonl``, while
    ``cached`` (whether the flow evaluator was served from the flow
    result cache) feeds ``timings.jsonl`` only — cache hits vary run to
    run, so they must stay out of the byte-stable store.
    """
    sweep, base_spec, index, params = args
    record: Dict[str, object] = {
        "id": sweep.point_id(index),
        "index": index,
        "params": params,
        "metrics": None,
        "error": None,
    }
    t0 = time.perf_counter()
    tb: Optional[str] = None
    cached = False
    try:
        metrics = evaluate_point(sweep, params, base_spec)
        cached = bool(metrics.pop("_cached", False))
        record["metrics"] = {k: _sanitize(v) for k, v in metrics.items()}
    except PointEvaluationError as exc:
        record["error"] = {"type": exc.error_type,
                           "message": exc.error_message}
        tb = exc.error_traceback
    except Exception as exc:  # noqa: BLE001 — failure rows by design
        record["error"] = {"type": type(exc).__name__,
                           "message": str(exc)}
        tb = traceback_module.format_exc()
    return record, time.perf_counter() - t0, cached, tb


class SweepRunner:
    """Execute a sweep spec with checkpointing and resume.

    Args:
        spec: The sweep to run.
        out_dir: Result-store directory; ``None`` runs fully in memory
            (no files) — what the sensitivity wrappers use.  Defaults
            to :func:`default_sweep_dir` when ``persist`` is left on.
        jobs: Worker processes (1 = evaluate in this process).
        base_spec: Optional unregistered ``InterposerSpec`` to sweep
            around instead of a registered design (stage evaluators
            only; in-memory runs).
        progress: Optional callback receiving one line per point.
        server_url: Optional ``repro.serve`` evaluation-server URL
            (e.g. ``http://127.0.0.1:8321``).  When set, points are
            submitted to the server instead of evaluated locally — the
            server's scheduler, warm pool, and shared cache tier do the
            work, and the resulting store is byte-identical to a local
            run.  ``jobs`` is ignored (concurrency is the server's).
    """

    def __init__(self, spec: SweepSpec,
                 out_dir: Optional[Path] = None,
                 jobs: int = 1,
                 base_spec: Optional[InterposerSpec] = None,
                 persist: bool = True,
                 progress: Optional[Callable[[str], None]] = None,
                 server_url: Optional[str] = None):
        spec.validate()
        self.spec = spec
        self.jobs = max(1, int(jobs))
        self.base_spec = base_spec
        self.progress = progress
        self.server_url = server_url
        if server_url is not None and base_spec is not None:
            raise ValueError("remote sweeps evaluate registered designs; "
                             "base_spec is local-only")
        if not persist:
            self.out_dir = None
        else:
            self.out_dir = Path(out_dir) if out_dir is not None \
                else default_sweep_dir(spec.name)

    # ---------------------------------------------------------------- #
    # Store paths.
    # ---------------------------------------------------------------- #

    @property
    def manifest_path(self) -> Optional[Path]:
        return None if self.out_dir is None \
            else self.out_dir / "manifest.json"

    @property
    def points_path(self) -> Optional[Path]:
        return None if self.out_dir is None \
            else self.out_dir / "points.jsonl"

    @property
    def timings_path(self) -> Optional[Path]:
        return None if self.out_dir is None \
            else self.out_dir / "timings.jsonl"

    @property
    def errors_path(self) -> Optional[Path]:
        return None if self.out_dir is None \
            else self.out_dir / "errors.log"

    # ---------------------------------------------------------------- #
    # Resume bookkeeping.
    # ---------------------------------------------------------------- #

    def _load_done(self, points: List[Dict[str, object]]
                   ) -> List[Dict[str, object]]:
        """Validated already-completed prefix of the point list."""
        if self.points_path is None or not self.points_path.exists():
            return []
        done: List[Dict[str, object]] = []
        with open(self.points_path) as fh:
            for i, line in enumerate(fh):
                if not line.strip():
                    continue
                record = json.loads(line)
                if i >= len(points):
                    raise ValueError(
                        f"{self.points_path}: has more rows than the "
                        f"spec generates ({len(points)} points)")
                if record.get("index") != i \
                        or record.get("params") != points[i]:
                    raise ValueError(
                        f"{self.points_path}: row {i} does not match "
                        f"the spec's point list; refusing to resume")
                done.append(record)
        return done

    def _check_manifest(self, resume: bool, total: int) -> None:
        path = self.manifest_path
        if path is None:
            return
        manifest = {
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "total_points": total,
        }
        if path.exists() and resume:
            existing = json.loads(path.read_text())
            if existing.get("spec_hash") != manifest["spec_hash"]:
                raise ValueError(
                    f"{path}: existing sweep was generated by a "
                    f"different spec (hash {existing.get('spec_hash')} "
                    f"vs {manifest['spec_hash']}); use a new sweep name "
                    f"or delete the store")
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                        + "\n")

    # ---------------------------------------------------------------- #
    # Execution.
    # ---------------------------------------------------------------- #

    def run(self, resume: bool = False,
            limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Run the sweep; returns all point records in point order.

        Args:
            resume: Keep completed rows in the store and compute only
                the remaining points.  Off: the store is restarted.
            limit: Stop after the store holds this many rows (tests use
                it to simulate an interrupted sweep).
        """
        points = self.spec.points()
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._check_manifest(resume, len(points))
            if not resume:
                for path in (self.points_path, self.timings_path,
                             self.errors_path):
                    if path.exists():
                        path.unlink()
        done = self._load_done(points) if resume else []

        stop = len(points) if limit is None else min(limit, len(points))
        todo = [(i, points[i]) for i in range(len(done), stop)]
        records = list(done)
        if not todo:
            return records

        # Dedupe identical in-flight points: only the first occurrence
        # of each parameter set is evaluated; later duplicates copy its
        # deterministic record (what evaluating them would produce).
        unique_tasks: List[Tuple[SweepSpec, Optional[InterposerSpec],
                                 int, Dict[str, object]]] = []
        plan: List[Tuple[int, bool]] = []  # (unique position, is_dup)
        first_seen: Dict[str, int] = {}
        for i, params in todo:
            key = json.dumps(params, sort_keys=True,
                             separators=(",", ":"))
            pos = first_seen.get(key)
            if pos is None:
                first_seen[key] = len(unique_tasks)
                plan.append((len(unique_tasks), False))
                unique_tasks.append((self.spec, self.base_spec, i,
                                     params))
            else:
                plan.append((pos, True))

        if self.server_url is not None:
            pool_state = "remote"
            outcomes = self._remote_outcomes(unique_tasks)
        elif self.jobs > 1 and len(unique_tasks) > 1:
            # Persistent pool (repro.core.pool): reused across run()
            # calls and sweeps, so only the first fan-out in a process
            # pays worker spin-up and imports.  imap_retry yields in
            # submission order, which is point order — the store stays
            # an ordered prefix of the point list — and resubmits the
            # unfinished suffix once if a worker dies mid-sweep.
            pool, reused = get_pool(self.jobs)
            pool_state = "warm" if reused else "cold"
            outcomes = imap_retry(_evaluate_task, unique_tasks,
                                  self.jobs, chunksize=1)
        else:
            pool_state = "serial"
            outcomes = map(_evaluate_task, unique_tasks)
        outcomes_iter = iter(outcomes)
        completed: List[Tuple[Dict[str, object], float, bool,
                              Optional[str]]] = []

        points_fh = timings_fh = None
        if self.out_dir is not None:
            points_fh = open(self.points_path, "a")
            timings_fh = open(self.timings_path, "a")
        try:
            for (index, params), (pos, is_dup) in zip(todo, plan):
                if not is_dup:
                    completed.append(next(outcomes_iter))
                    record, wall_s, cached, tb = completed[-1]
                else:
                    # The representative always precedes its duplicates
                    # in point order, so its outcome is already in.
                    rep_record, _, cached, tb = completed[pos]
                    record = dict(rep_record)
                    record["id"] = self.spec.point_id(index)
                    record["index"] = index
                    wall_s = 0.0
                records.append(record)
                if points_fh is not None:
                    points_fh.write(_canonical_line(record))
                    points_fh.flush()  # checkpoint per point
                    timings_fh.write(_canonical_line({
                        "id": record["id"],
                        "wall_s": round(wall_s, 4),
                        "cached": cached,
                        "deduped": is_dup,
                        "pool": pool_state,
                    }))
                    timings_fh.flush()
                    if tb:
                        with open(self.errors_path, "a") as err_fh:
                            err_fh.write(
                                f"--- {record['id']} ---\n{tb}\n")
                if self.progress is not None:
                    status = ("ok" if record["error"] is None else
                              f"FAILED ({record['error']['type']})")
                    self.progress(
                        f"[{index + 1}/{len(points)}] "
                        f"{record['id']} {status} {wall_s:.2f}s")
        finally:
            if points_fh is not None:
                points_fh.close()
                timings_fh.close()
        return records

    # ---------------------------------------------------------------- #
    # Remote evaluation (repro.serve).
    # ---------------------------------------------------------------- #

    def _remote_outcomes(self, unique_tasks):
        """Evaluate unique points on a ``repro.serve`` server.

        All points are submitted up front (the server schedules them
        onto its pool and dedupes identical in-flight requests — also
        against other clients), then results are collected in point
        order, yielding the exact outcome tuples
        :func:`_evaluate_task` would produce locally: the evaluators
        are deterministic, so the resulting store is byte-identical.
        """
        from ..serve.client import ServeClient

        client = ServeClient(self.server_url)
        try:
            handles = [client.submit(request_for_point(sweep, params))
                       for sweep, _base, _index, params in unique_tasks]
            for (sweep, _base, index, params), handle \
                    in zip(unique_tasks, handles):
                t0 = time.perf_counter()
                out = client.result(handle.job_id)
                record: Dict[str, object] = {
                    "id": sweep.point_id(index),
                    "index": index,
                    "params": params,
                    "metrics": None,
                    "error": None,
                }
                tb: Optional[str] = None
                if out.error_type is not None:
                    record["error"] = {"type": out.error_type,
                                       "message": out.error_message}
                    tb = out.error_traceback
                else:
                    record["metrics"] = {k: _sanitize(v)
                                         for k, v in out.metrics.items()}
                yield (record, time.perf_counter() - t0, out.cached, tb)
        finally:
            client.close()


def run_sweep(spec: SweepSpec, jobs: int = 1,
              base_spec: Optional[InterposerSpec] = None
              ) -> List[Dict[str, object]]:
    """Evaluate a sweep fully in memory (no result store)."""
    return SweepRunner(spec, jobs=jobs, base_spec=base_spec,
                       persist=False).run()
