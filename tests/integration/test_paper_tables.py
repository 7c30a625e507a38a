"""The paper-table drift gate.

The scale-1.0 suite under ``benchmarks/`` regenerates every table and
figure of the paper's evaluation and writes them to ``results/``.  This
test runs that suite on a copy of ``benchmarks/`` (without ``perf/``),
whose ``results/`` directory is the copy's sibling, and compares every
file it writes with the committed one, byte for byte.  A change that
moves a table commits the new file and says why in CHANGES.md.

The child runs with one BLAS thread (eye envelopes move with the thread
count) and with the result store disabled (six scale-1.0 flow results
would otherwise land in it).
"""

import difflib
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
RESULTS = REPO / "results"


def _first_difference(name: str, want: bytes, got: bytes) -> str:
    """A unified diff of one file that differs (bytes if not text)."""
    try:
        a, b = want.decode().splitlines(), got.decode().splitlines()
    except UnicodeDecodeError:
        return f"{name}: {len(want)} committed bytes, {len(got)} written"
    return "\n".join(difflib.unified_diff(
        a, b, f"committed/{name}", f"regenerated/{name}", lineterm=""))


def test_regenerated_tables_match_the_committed_ones(tmp_path):
    shutil.copytree(REPO / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("perf", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               OPENBLAS_NUM_THREADS="1", REPRO_FLOW_CACHE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(tmp_path / "benchmarks"), "-p", "no:cacheprovider",
         "--benchmark-disable"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]

    committed = sorted(p.name for p in RESULTS.iterdir()
                       if p.suffix in (".txt", ".s2p"))
    written = sorted(p.name for p in (tmp_path / "results").iterdir())
    assert written == committed
    for name in written:
        want = (RESULTS / name).read_bytes()
        got = (tmp_path / "results" / name).read_bytes()
        assert got == want, _first_difference(name, want, got)
