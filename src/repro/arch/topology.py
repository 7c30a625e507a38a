"""Shared N-chiplet topology axis: arrangements and validation.

The paper studies one fixed topology — two tiles, each a logic+memory
chiplet pair — but every model downstream of the netlist (bump
planning, interposer placement, routing, PDN, thermal) is written
against *placed dies*, not against that specific split.  This module
names the two axes that generalize the flow to arbitrary chiplet
counts and is the single source of truth for validating them, shared
by the CLI (``error:`` + exit 2), the serve protocol (HTTP 400), the
DSE axis parser, and :func:`repro.core.flow.run_design` itself.

Axis semantics:

* ``num_chiplets`` — how many dies the monolithic two-tile system
  netlist is partitioned into (min-cut N-way partitioning, see
  :func:`repro.partition.multiway.nway_partition`).  ``2`` with the
  ``grid`` arrangement is the paper's own logic/memory split.
* ``arrangement`` — how those dies are packed on the interposer:
  ``grid`` (near-square array), ``row`` (single strip), ``hexagonal``
  (HexaMesh-style hex packing), or ``stacked`` (pairs of dies stacked
  vertically; needs an embedding-capable interposer).
"""

from __future__ import annotations

from typing import Tuple

#: Supported chiplet arrangements, in documentation order.
ARRANGEMENTS: Tuple[str, ...] = ("grid", "row", "hexagonal", "stacked")

#: Inclusive bounds on the ``num_chiplets`` axis.  The lower bound is
#: the paper's own system (one die is the monolithic baseline, handled
#: by :func:`repro.core.flow.run_monolithic`); the upper bound keeps
#: partition and routing runtimes inside the interactive envelope.
MIN_CHIPLETS = 2
MAX_CHIPLETS = 64


def validate_topology(num_chiplets: object,
                      arrangement: object) -> Tuple[int, str]:
    """Validate and normalize a ``(num_chiplets, arrangement)`` pair.

    Args:
        num_chiplets: Requested chiplet count; must be an integral
            value in ``[MIN_CHIPLETS, MAX_CHIPLETS]``.
        arrangement: One of :data:`ARRANGEMENTS`.

    Returns:
        The normalized ``(int, str)`` pair.

    Raises:
        ValueError: On an out-of-range count or unknown arrangement —
            with a single-line message suitable for the CLI ``error:``
            convention and the serve HTTP 400 body.
    """
    if isinstance(num_chiplets, bool) or not isinstance(
            num_chiplets, (int, float)):
        raise ValueError(
            f"num_chiplets must be an integer, got {num_chiplets!r}")
    if float(num_chiplets) != int(num_chiplets):
        raise ValueError(
            f"num_chiplets must be an integer, got {num_chiplets!r}")
    count = int(num_chiplets)
    if not MIN_CHIPLETS <= count <= MAX_CHIPLETS:
        raise ValueError(
            f"num_chiplets must be between {MIN_CHIPLETS} and "
            f"{MAX_CHIPLETS}, got {count}")
    if not isinstance(arrangement, str):
        raise ValueError(
            f"arrangement must be a string, got {arrangement!r}")
    if arrangement not in ARRANGEMENTS:
        raise ValueError(
            f"unknown arrangement {arrangement!r} (choose from "
            f"{', '.join(ARRANGEMENTS)})")
    return count, arrangement


def is_default_topology(num_chiplets: int, arrangement: str) -> bool:
    """True for the paper's own topology (2 chiplets, grid packing).

    For it the flow implements the paper's logic and memory chiplets
    and places them as two tiles, instead of partitioning the
    monolithic netlist.
    """
    return num_chiplets == 2 and arrangement == "grid"
