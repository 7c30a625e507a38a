"""Host-speed probe: a fixed reference loop timed in short bursts.

On a shared host the speed of a core changes with the other tenants'
load, by up to 2x within minutes on a 2-core cloud VM, and CPU time
changes with it.  A run therefore pins itself, and every process it
starts, to one CPU (:func:`pin`) and starts :class:`Probe`, a process on
the same CPU that runs :func:`burst` for about a millisecond every
:data:`PERIOD_S` and records each burst's CPU time.  The bursts
interleave with the work on that CPU, so their mean over a timed window,
divided by :data:`NOMINAL_BURST_S`, is how much slower than nominal the
host ran the work (:func:`slowdown`).  The benchmark's end-to-end times
are divided by it: they read what the work would take on the host at
its nominal speed.

The reference loop does what the program's hot paths do (the
interposer's scalar A* and the FM partitioner): interpreted Python, dict
lookups and heap operations.  Its dict is small enough to stay in the
core's own caches, so between bursts the work does not evict it: on a
2-core VM whose speed drifted by 1.5x, the CPU time of each workload
rose with the burst time to the power 1.0-1.2 (a dict of a few MB
overstated some drifts and understated others).

Usage, as the probe process (``run.py`` starts it)::

    python3 perfbench/speed.py --out SAMPLES.txt

It runs until SIGTERM (or until the process that started it is gone),
then writes one ``<monotonic time> <burst CPU seconds>`` line per
burst.
"""

from __future__ import annotations

import argparse
import heapq
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Pause between bursts (the probe takes a few percent of the CPU).
PERIOD_S = 0.05
#: Burst CPU time taken as the nominal speed.  Any fixed value serves:
#: every run divides by the same one.
NOMINAL_BURST_S = 1.0e-3
#: Fewer bursts than this in a window: use every burst of the run.
MIN_SAMPLES = 10

_TABLE_SIZE = 1 << 9
_LOOKUPS = 2000
_HEAP_SIZE = 256


def _table():
    """The reference dict and the fixed keys one burst looks up in
    it."""
    table = {(i * 2654435761) % (1 << 32): i for i in range(_TABLE_SIZE)}
    keys = list(table)
    return table, [keys[(i * 40503) % _TABLE_SIZE] for i in range(_LOOKUPS)]


def burst(table, keys) -> int:
    """One burst of the reference loop."""
    heap: List[Tuple[int, int]] = []
    total = 0
    for key in keys:
        heapq.heappush(heap, (table[key], key))
        if len(heap) > _HEAP_SIZE:
            total += heapq.heappop(heap)[0]
    return total


def pin() -> int:
    """Pin this process (and so every process it starts) to one of the
    CPUs it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """The probe process, started on this process's CPUs.

    Args:
        out: File the probe writes its samples to when stopped.
    """

    def __init__(self, out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--out",
             str(out)], stdout=subprocess.DEVNULL)

    def stop(self) -> List[Tuple[float, float]]:
        """Stop the probe, wait for it, and return its samples
        ``(monotonic time, burst CPU seconds)``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.out.exists():
            raise RuntimeError("the host-speed probe wrote no samples")
        samples = []
        for line in self.out.read_text().splitlines():
            when, cpu = line.split()
            samples.append((float(when), float(cpu)))
        return samples


def slowdown(samples: Sequence[Tuple[float, float]], start: float,
             end: float) -> float:
    """Mean burst CPU time within ``[start, end]`` (monotonic seconds)
    over :data:`NOMINAL_BURST_S`; over the whole run when the window
    holds fewer than :data:`MIN_SAMPLES` bursts."""
    window = [cpu for when, cpu in samples if start <= when <= end]
    if len(window) < MIN_SAMPLES:
        window = [cpu for _when, cpu in samples]
    if not window:
        raise RuntimeError("the host-speed probe recorded no bursts")
    return sum(window) / len(window) / NOMINAL_BURST_S


class _Stop(Exception):
    pass


def _raise_stop(signum, frame):
    raise _Stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    samples: List[Tuple[float, float]] = []
    parent = os.getppid()
    signal.signal(signal.SIGTERM, _raise_stop)
    try:
        table, keys = _table()
        while os.getppid() == parent:
            before = time.thread_time()
            burst(table, keys)
            cpu = time.thread_time() - before
            samples.append((time.monotonic(), cpu))
            time.sleep(PERIOD_S)
    except _Stop:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        Path(args.out).write_text("".join(f"{when:.6f} {cpu:.9f}\n"
                                          for when, cpu in samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
