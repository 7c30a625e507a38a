"""Start the evaluation server with the tracing wrappers installed.

The traced ``serve_mix`` run starts the server through this launcher so
the store, the canonical pickler and every flow-layer boundary record
spans inside the server process and its forked pool workers, while the
process layout stays that of ``python -m repro serve``.

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/servelaunch.py --trace-dir DIR --run-id ID -- \
        serve --port 0 --workers 1 --cache-dir STORE
"""

from __future__ import annotations

import argparse
import os


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args and repro_args[0] == "--":
        repro_args = repro_args[1:]

    # Load every module that binds a wrapped name before installing.
    import repro.dse.evaluate  # noqa: F401
    import repro.serve.server  # noqa: F401
    from repro.__main__ import main as repro_main

    import layers
    import spans
    tracer = spans.Tracer(args.run_id)
    spans.install(tracer, layers.SERVE_BOUNDARIES)
    tracer.flush_per_root_in_children(args.trace_dir)
    try:
        return repro_main(repro_args)
    finally:
        tracer.flush(os.path.join(args.trace_dir, "spans-server.jsonl"))


if __name__ == "__main__":
    raise SystemExit(main())
