"""Resumable sweep execution with a JSONL result store.

:class:`SweepRunner` fans the points of a :class:`~repro.dse.space.SweepSpec`
out over worker processes (the same process-pool pattern and the same
result store as :func:`repro.core.flow.run_designs`) and checkpoints
every completed point to ``<out_dir>/points.jsonl``.  Killing a sweep
and re-running with ``resume=True`` recomputes nothing that is already
on disk and appends only the remaining points; because point
generation, evaluation, and serialization are all deterministic, the
resumed store is byte-identical to an uninterrupted run.

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

Every point is one :class:`~repro.core.request.EvalRequest`
(:func:`~repro.dse.space.request_for_point`).  Locally this process
looks it up in the content store and, on a miss, runs
:func:`~repro.dse.evaluate.evaluate_request` — in this process, or on
the persistent pool of :mod:`repro.core.pool`, so every sweep after the
first in a process (and every rung of a multi-fidelity run) reuses
warm, pre-imported workers — then stores the outcome
(:func:`~repro.core.store.cached_outcomes`); remotely a ``repro.serve``
server does the same.  Either way the outcome is a
:class:`~repro.core.request.ServeResult`, one builder turns it into the
point's row, and its ``DesignResult`` is dropped once the row is
written.  Points with identical parameters are evaluated once per run —
the later duplicates copy the first occurrence's deterministic record,
which is what an actual evaluation would have produced.

Evaluation errors become structured failure rows instead of aborting
the sweep; the surviving points still complete and persist.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.pool import get_pool
from ..core.request import EvalRequest, ServeResult
from ..core.store import cached_outcomes
from .evaluate import evaluate_request
from .space import SweepSpec, request_for_point


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


def _record(spec: SweepSpec, index: int, params: Dict[str, object],
            outcome: ServeResult) -> Dict[str, object]:
    """The deterministic ``points.jsonl`` row of one point's outcome.

    Cache provenance, wall time and the traceback vary run to run, so
    they stay out of it (``timings.jsonl`` and ``errors.log``).
    """
    record: Dict[str, object] = {
        "id": spec.point_id(index),
        "index": index,
        "params": params,
        "metrics": None,
        "error": None,
    }
    if outcome.ok:
        record["metrics"] = {k: _sanitize(v)
                             for k, v in outcome.metrics.items()}
    else:
        record["error"] = {"type": outcome.error_type,
                           "message": outcome.error_message}
    return record


class SweepRunner:
    """Execute a sweep spec with checkpointing and resume.

    Args:
        spec: The sweep to run.
        out_dir: Sweep directory; ``persist=False`` writes none (the
            content store still serves and keeps the points) — what
            the sensitivity wrappers use.  Defaults to
            :func:`default_sweep_dir` when ``persist`` is left on.
        jobs: Worker processes (1 = evaluate in this process).
        progress: Optional callback receiving one line per point.
        server_url: Optional ``repro.serve`` evaluation-server URL
            (e.g. ``http://127.0.0.1:8321``).  When set, points are
            submitted to the server instead of evaluated locally — the
            server's scheduler, warm pool, and result store do the
            work, and the resulting store is byte-identical to a local
            run.  ``jobs`` is ignored (concurrency is the server's).
    """

    def __init__(self, spec: SweepSpec,
                 out_dir: Optional[Path] = None,
                 jobs: int = 1,
                 persist: bool = True,
                 progress: Optional[Callable[[str], None]] = None,
                 server_url: Optional[str] = None):
        spec.validate()
        self.spec = spec
        self.jobs = max(1, int(jobs))
        self.progress = progress
        self.server_url = server_url
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
        requests: List[EvalRequest] = []
        plan: List[Tuple[int, bool]] = []  # (unique position, is_dup)
        first_seen: Dict[str, int] = {}
        for i, params in todo:
            key = json.dumps(params, sort_keys=True,
                             separators=(",", ":"))
            pos = first_seen.get(key)
            if pos is None:
                first_seen[key] = len(requests)
                plan.append((len(requests), False))
                requests.append(request_for_point(self.spec, params))
            else:
                plan.append((pos, True))

        if self.server_url is not None:
            pool_state = "remote"
            outcomes = self._remote_outcomes(requests)
        else:
            # Persistent pool (repro.core.pool): reused across run()
            # calls and sweeps, so only the first fan-out in a process
            # pays worker spin-up and imports.  Outcomes arrive in
            # point order — the store stays an ordered prefix of the
            # point list — and a worker death mid-sweep costs one
            # resubmit of the unfinished suffix (imap_retry).
            pool_state = "serial"
            if self.jobs > 1 and len(requests) > 1:
                _pool, reused = get_pool(self.jobs)
                pool_state = "warm" if reused else "cold"
            outcomes = cached_outcomes(evaluate_request, requests,
                                       self.jobs)
        outcomes_iter = iter(outcomes)
        completed: List[ServeResult] = []

        points_fh = timings_fh = None
        if self.out_dir is not None:
            points_fh = open(self.points_path, "a")
            timings_fh = open(self.timings_path, "a")
        try:
            for (index, params), (pos, is_dup) in zip(todo, plan):
                # The representative always precedes its duplicates in
                # point order, so a duplicate's outcome is already in.
                # A row needs only the metrics: the DesignResult is
                # dropped here, so no result outlives its row.
                if not is_dup:
                    completed.append(dataclasses.replace(
                        next(outcomes_iter), result=None))
                outcome = completed[pos]
                record = _record(self.spec, index, params, outcome)
                wall_s = 0.0 if is_dup else outcome.wall_s
                records.append(record)
                if points_fh is not None:
                    points_fh.write(_canonical_line(record))
                    points_fh.flush()  # checkpoint per point
                    timings_fh.write(_canonical_line({
                        "id": record["id"],
                        "wall_s": round(wall_s, 4),
                        "cached": outcome.cached,
                        "deduped": is_dup,
                        "pool": pool_state,
                    }))
                    timings_fh.flush()
                    if outcome.error_traceback:
                        with open(self.errors_path, "a") as err_fh:
                            err_fh.write(
                                f"--- {record['id']} ---\n"
                                f"{outcome.error_traceback}\n")
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

    def _remote_outcomes(self, requests: List[EvalRequest]
                         ) -> Iterator[ServeResult]:
        """Evaluate unique points on a ``repro.serve`` server.

        All points are submitted up front (the server schedules them
        onto its pool and dedupes identical in-flight requests — also
        against other clients), then results are collected in point
        order.  The server runs the same
        :func:`~repro.dse.evaluate.evaluate_request` a local sweep
        does, so the resulting store is byte-identical.  Each outcome's
        ``wall_s`` is this client's wait for the point.
        """
        from ..serve.client import ServeClient

        client = ServeClient(self.server_url)
        try:
            handles = [client.submit(request) for request in requests]
            for handle in handles:
                t0 = time.perf_counter()
                out = client.result(handle.job_id)
                yield dataclasses.replace(
                    out, wall_s=time.perf_counter() - t0)
        finally:
            client.close()


def run_sweep(spec: SweepSpec, jobs: int = 1) -> List[Dict[str, object]]:
    """Evaluate a sweep without a sweep directory (its points still go
    through the content store)."""
    return SweepRunner(spec, jobs=jobs, persist=False).run()
