"""Golden references for the production engines' equivalence tests.

Each reference keeps the original, straightforward implementation of a
kernel that production now runs vectorized or compiled:

* :mod:`.routing` — the per-cell interposer router: per-candidate
  path-cost loops, per-net overflow scans and the scalar heap A*
  (``RoutingGrid.maze_route_scalar``), with the grid occupancy helpers
  ``commit`` and ``rip_up`` that only it and the tests call;
* :mod:`.transient` — the per-element trapezoidal transient loop;
* :mod:`.eye` — the PRBS eye with its waveform stepped in full, never
  synthesized from a pulse-response bank;
* :mod:`.fm` — FM bipartitioning over dict gain buckets and N-way
  partitioning over per-part ``Netlist.subset`` copies;
* :mod:`.signoff` — chiplet floorplan, placement, global route, STA,
  power and power map, and FM's hypergraph, walking the netlist
  records by name;
* :mod:`.netlist` — the ``Netlist`` as name-keyed dicts of record
  objects, with its one-pass array view and record-by-record
  ``subset``;
* :mod:`.thermal` — the thermal grid's per-cell matrix assembly;
* :mod:`.placement` — the same-level die overlap check the placement
  tests assert on.

They live beside the tests rather than in ``src/repro`` so that editing
a reference never changes :func:`repro.core.request.code_version` and so
never invalidates a cached result.
"""

from .eye import simulate_eye_stepped
from .routing import (path_cost_scalar, route_interposer_pins_scalar,
                      route_interposer_scalar)
from .transient import simulate_scalar

__all__ = [
    "path_cost_scalar", "route_interposer_pins_scalar",
    "route_interposer_scalar", "simulate_eye_stepped", "simulate_scalar",
]
