"""The one persistent result store.

:class:`ContentStore` maps an :meth:`EvalRequest.cache_token` (request
content + code version) to the canonical pickle of its
:class:`ServeResult` in a ``cas-<token>.pkl`` file under one directory
(``results/.flow_cache/`` by default; see :func:`flow_cache_dir`).  It
is the only tier that outlives a process: the CLI, ``run_design`` and
``run_designs``, local sweeps and the evaluation service all read and
write the same entries, so a point any of them computed is a hit for
all the others.

Lifecycle management (``python -m repro cache``):

* :meth:`ContentStore.stats` — entry/byte counts plus persisted hit and
  miss counters (``cas-stats.json``, best-effort under concurrency).
* :meth:`ContentStore.gc` — LRU garbage collection down to a byte
  budget.  Reads touch entry mtimes, so recency is meaningful.

Every operation is best-effort: a corrupt or vanished entry is a miss,
never an exception.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .request import EvalRequest, ServeResult, canonical_dumps

#: Filename of the persisted hit/miss counters inside the store root.
STATS_FILE = "cas-stats.json"


def flow_cache_dir() -> Optional[Path]:
    """Directory of the result store, or ``None`` if disabled.

    Defaults to ``results/.flow_cache`` at the repository root; override
    with the ``REPRO_FLOW_CACHE`` environment variable (set it to ``0``
    or an empty string to disable the store entirely).
    """
    env = os.environ.get("REPRO_FLOW_CACHE")
    if env is not None:
        return Path(env) if env not in ("", "0") else None
    return Path(__file__).resolve().parents[3] / "results" / ".flow_cache"


@dataclass
class StoreStats:
    """Snapshot of the store's size and traffic counters.

    Attributes:
        root: Store directory (``None`` when the store is disabled).
        entries: Number of result entries.
        total_bytes: Bytes held by all result entries.
        hits: Persisted lifetime read hits.
        misses: Persisted lifetime read misses.
    """

    root: Optional[Path]
    entries: int = 0
    total_bytes: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> Optional[float]:
        """Lifetime hit rate, or ``None`` before any traffic."""
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total


class ContentStore:
    """Content-addressed result store over one directory.

    Args:
        root: Store directory.  Defaults to :func:`flow_cache_dir`
            (honouring the ``REPRO_FLOW_CACHE`` override); an
            explicitly disabled store makes every operation a no-op
            miss.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else flow_cache_dir()

    # ---------------------------------------------------------------- #
    # Paths.
    # ---------------------------------------------------------------- #

    def path_for(self, token: str) -> Optional[Path]:
        """Entry path for a cache token (``None`` when disabled)."""
        if self.root is None:
            return None
        return self.root / f"cas-{token}.pkl"

    # ---------------------------------------------------------------- #
    # Read / write.
    # ---------------------------------------------------------------- #

    def get_bytes(self, token: str) -> Optional[bytes]:
        """Raw stored payload for a token, touching its LRU mtime."""
        path = self.path_for(token)
        if path is None:
            return None
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return payload

    def get(self, request: EvalRequest) -> Optional[ServeResult]:
        """Stored result for a request, or ``None`` (counted either
        way)."""
        payload = self.get_bytes(request.cache_token())
        out = None
        if payload is not None:
            try:
                out = pickle.loads(payload)
            except Exception:  # noqa: BLE001 — corrupt entry is a miss
                pass
        if not isinstance(out, ServeResult):
            out = None
        self._bump(hits=int(out is not None), misses=int(out is None))
        return out

    def put(self, request: EvalRequest,
            result: ServeResult) -> Optional[bytes]:
        """Persist a result under its request's token.

        Only the deterministic portion (:meth:`ServeResult.canonical`)
        is stored, serialized with the canonical pickler
        (:func:`~repro.core.request.canonical_dumps`), so the entry
        bytes are a pure function of its address.  Returns the stored
        bytes (what :meth:`get_bytes` will serve), or ``None`` when
        the store is disabled or the write failed.
        """
        path = self.path_for(request.cache_token())
        if path is None or not result.ok:
            return None
        payload = canonical_dumps(result.canonical())
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
            tmp.write_bytes(payload)
            tmp.replace(path)
        except OSError:
            return None  # best-effort; never fail an evaluation over it
        return payload

    # ---------------------------------------------------------------- #
    # Counters.
    # ---------------------------------------------------------------- #

    def _stats_path(self) -> Optional[Path]:
        return None if self.root is None else self.root / STATS_FILE

    def _read_counters(self) -> Dict[str, int]:
        path = self._stats_path()
        if path is None:
            return {"hits": 0, "misses": 0}
        try:
            data = json.loads(path.read_text())
            return {"hits": int(data.get("hits", 0)),
                    "misses": int(data.get("misses", 0))}
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def _bump(self, hits: int = 0, misses: int = 0) -> None:
        """Best-effort persisted counter update (races lose counts,
        never corrupt: the write is atomic-replace)."""
        path = self._stats_path()
        if path is None:
            return
        counters = self._read_counters()
        counters["hits"] += hits
        counters["misses"] += misses
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
            tmp.write_text(json.dumps(counters, sort_keys=True) + "\n")
            tmp.replace(path)
        except OSError:
            pass

    # ---------------------------------------------------------------- #
    # Lifecycle.
    # ---------------------------------------------------------------- #

    def _entries(self) -> List[Tuple[Path, int, float]]:
        """All result entries as ``(path, bytes, mtime)`` rows."""
        if self.root is None or not self.root.is_dir():
            return []
        rows = []
        for path in self.root.glob("cas-*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append((path, stat.st_size, stat.st_mtime))
        return rows

    def stats(self) -> StoreStats:
        """Current size and lifetime traffic counters."""
        rows = self._entries()
        counters = self._read_counters()
        return StoreStats(
            root=self.root,
            entries=len(rows),
            total_bytes=sum(size for _, size, _ in rows),
            hits=counters["hits"],
            misses=counters["misses"])

    def gc(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict entries until the store is within ``max_bytes``.

        Oldest mtime goes first.  Returns ``(entries_removed,
        bytes_freed)``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        rows = sorted(self._entries(), key=lambda r: (r[2], r[0].name))
        total = sum(size for _, size, _ in rows)
        removed = freed = 0
        for path, size, _mtime in rows:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        return removed, freed
