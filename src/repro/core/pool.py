"""Persistent worker pool for flow fan-outs and DSE sweeps.

Spinning up a ``ProcessPoolExecutor`` per sweep point costs far more
than most cached flow evaluations: each worker forks/spawns, imports the
whole ``repro`` package, and is then thrown away.  This module keeps one
module-level pool alive for the life of the process so every fan-out
after the first reuses warm workers, and pre-imports the heavy flow
modules in each worker via an initializer so even the *first* task per
worker skips import latency.

The pool is recreated only when the requested worker count changes or a
worker died (broken pool); an ``atexit`` hook shuts it down at process
exit.  Callers that need isolation (tests asserting process counts) can
call :func:`shutdown_pool` explicitly.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, Sequence, Tuple, TypeVar

_POOL = None
_POOL_SIZE = 0

_T = TypeVar("_T")
_R = TypeVar("_R")


def _warm_import() -> None:
    """Worker initializer: pre-import the flow so first tasks run warm."""
    import repro.core.flow  # noqa: F401
    import repro.dse.evaluate  # noqa: F401


def get_pool(jobs: int) -> Tuple[ProcessPoolExecutor, bool]:
    """Return ``(pool, reused)`` for a fan-out of ``jobs`` workers.

    ``reused`` is ``False`` when this call created (or recreated) the
    pool — the caller's first map through it pays worker warm-up — and
    ``True`` when warm workers from an earlier fan-out were reused.
    """
    global _POOL, _POOL_SIZE
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    broken = _POOL is not None and getattr(_POOL, "_broken", False)
    if _POOL is not None and (_POOL_SIZE != jobs or broken):
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=jobs,
                                    initializer=_warm_import)
        _POOL_SIZE = jobs
        return _POOL, False
    return _POOL, True


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_SIZE = 0


def pool_health() -> Dict[str, object]:
    """Observability snapshot of the persistent pool.

    Returns ``{"active", "size", "broken"}`` — consumed by the serve
    subsystem's ``/v1/stats`` endpoint and usable from tests without
    poking the private module state.
    """
    return {
        "active": _POOL is not None,
        "size": _POOL_SIZE,
        "broken": bool(_POOL is not None
                       and getattr(_POOL, "_broken", False)),
    }


def imap_retry(fn: Callable[[_T], _R], tasks: Sequence[_T], jobs: int,
               chunksize: int = 1) -> Iterator[_R]:
    """Map ``fn`` over ``tasks`` on the persistent pool, in order.

    Like ``pool.map`` but resilient to a dying worker: when the pool
    breaks mid-map (``BrokenProcessPool`` — e.g. a worker was OOM-killed
    or segfaulted), the already-yielded prefix is kept, the pool is
    recreated, and the not-yet-yielded suffix is resubmitted **once**.
    A second break propagates — a deterministic worker-killing task must
    not retry forever.

    ``jobs <= 1`` (or a single task) runs serially in this process, so
    callers need no separate serial branch.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield fn(task)
        return
    done = 0
    for attempt in range(2):
        pool, _reused = get_pool(jobs)
        try:
            for out in pool.map(fn, tasks[done:], chunksize=chunksize):
                yield out
                done += 1
            return
        except BrokenProcessPool:
            shutdown_pool()
            if attempt:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


atexit.register(shutdown_pool)
