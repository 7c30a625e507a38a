"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces public functions and methods of the ``repro``
package with thin wrappers that record one span per call: name, start,
end, parent span, run id, process and thread.  Spans stay in memory and
are written out as JSON lines when the run ends (or, in forked pool
workers that never run exit handlers, whenever a root span closes).

Only benchmark code installs wrappers; no module under ``src/`` changes.
The wrapper replaces every binding of the original object in the loaded
``repro`` modules (``from x import f`` copies included), so calls made
through any import path are seen.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Records spans for wrapped calls in this process.

    Args:
        run_id: Identifier shared by every span of one benchmark run,
            across all of its processes.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self.flush_path: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name``.

        ``observe(result, args, kwargs)`` may return a dict of extra
        span attributes (a request kind, a byte count); it runs after
        the span's end time is taken.  An observer with a ``before()``
        method is called as ``observe(result, args, kwargs, state)``
        with the state ``before()`` returned just before the call (a
        counter snapshot, say).
        """
        before = getattr(observe, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            state = (before(),) if before is not None else ()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            record = {"id": span_id, "parent": parent, "name": name,
                      "start": start, "end": end, "run": self.run_id,
                      "pid": os.getpid(),
                      "tid": threading.get_ident()}
            if observe is not None:
                record.update(observe(result, args, kwargs, *state) or {})
            with self._lock:
                self.spans.append(record)
            if not stack and self.flush_path is not None:
                self.flush()
            return result

        wrapper.__traced__ = fn
        return wrapper

    def flush(self, path: Optional[str] = None) -> None:
        """Append the recorded spans to ``path`` (default
        :attr:`flush_path`) and forget them."""
        target = path or self.flush_path
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans or target is None:
            return
        with open(target, "a") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")

    def flush_per_root_in_children(self, trace_dir: str) -> None:
        """Make forked children start empty and flush after each root
        span into ``spans-<pid>.jsonl`` (pool workers exit without
        running exit handlers)."""
        def _child():
            self.spans = []
            self._local = threading.local()
            self._lock = threading.Lock()
            self.flush_path = os.path.join(trace_dir,
                                           f"spans-{os.getpid()}.jsonl")
        os.register_at_fork(after_in_child=_child)


def _resolve(target: str):
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.method"`` -> (owner,
    attribute name, original object)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer,
            boundaries: Iterable[Tuple[str, str, Optional[Callable]]]
            ) -> None:
    """Wrap every boundary ``(span name, target, observe)``.

    Functions are rebound in every loaded ``repro`` module that holds
    them; methods are replaced on their class.
    """
    for name, target, observe in boundaries:
        owner, attr, original = _resolve(target)
        wrapper = tracer.wrap(name, original, observe)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "repro" or
                                          module_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def load_spans(paths: Iterable[str]) -> List[Dict[str, object]]:
    """Read span records from JSON-lines files."""
    spans: List[Dict[str, object]] = []
    for path in paths:
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: List[Dict[str, object]]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    Self time is a span's duration minus the part of it its child spans
    cover.  Busy time is the time covered by the name's spans (nested
    same-name calls are counted once).
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"]))
    out: Dict[str, Dict[str, float]] = {}
    by_name: Dict[str, Dict[int, List[Tuple[float, float]]]] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        kids = children.get((s["pid"], s["id"]), [])
        entry["self_s"] += (s["end"] - s["start"]) - _union(kids)
        by_name.setdefault(s["name"], {}).setdefault(s["pid"], []).append(
            (s["start"], s["end"]))
    for name, entry in out.items():
        entry["busy_s"] = sum(_union(iv) for iv in by_name[name].values())
    return out
