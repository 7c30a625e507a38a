"""Output checks of the flow workloads and the paper-fidelity metric.

``paper_flow`` outputs are reduced to the rows the paper reports
(Tables III, IV and V and the six abstract claims).  At the reference
seed they must equal the rows committed under ``reference/``; at any
seed they must be complete and finite.  ``paper_err_pct`` is the mean
absolute relative error of a fixed list of those entries against
``benchmarks/paper_data.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

DESIGNS = ("glass_25d", "glass_3d", "silicon_25d", "silicon_3d", "shinko",
           "apx")

#: Seed whose outputs are pinned by a committed reference.
REFERENCE_SEED = 2023

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(scale: float, seed: int) -> Path:
    """Committed reference rows for a ``paper_flow`` point."""
    return REFERENCE_DIR / f"paper_flow-s{scale:g}-r{seed}.json"


def _rounded(value):
    """JSON-stable form of a row value (floats to 9 significant
    digits, tuples as lists)."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def paper_rows(results: Mapping[str, object]) -> Dict[str, object]:
    """Table III/IV/V rows and the claims of six ``DesignResult``\\ s."""
    from repro.core.claims import compute_claims

    rows = {
        "table3": {n: {"logic": results[n].logic.table3_row(),
                       "memory": results[n].memory.table3_row()}
                   for n in DESIGNS},
        "table4": {n: results[n].table4_row() for n in DESIGNS},
        "table5": {n: results[n].table5_rows() for n in DESIGNS},
        "claims": compute_claims(results["glass_3d"], results["glass_25d"],
                                 results["silicon_25d"]).as_dict(),
    }
    return _rounded(rows)


def _finite_numbers(value, path: str, bad: List[str]) -> None:
    if isinstance(value, bool) or value is None:
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            bad.append(path)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite_numbers(v, f"{path}[{i}]", bad)
    elif isinstance(value, dict):
        for k, v in value.items():
            _finite_numbers(v, f"{path}.{k}", bad)


def check_paper(rows: Dict[str, object], results: Mapping[str, object],
                scale: float, seed: int) -> List[str]:
    """Problems with a ``paper_flow`` round (empty when it is correct)."""
    missing = [n for n in DESIGNS if n not in results]
    if missing:
        return [f"missing design results: {missing}"]
    problems = []
    for n in DESIGNS:
        r = results[n]
        stages = [r.fullchip, r.l2m_channel, r.l2l_channel, r.l2m_eye,
                  r.l2l_eye, r.thermal]
        if r.spec.style.name != "TSV_STACK":
            stages += [r.route, r.pdn_impedance, r.ir_drop,
                       r.power_transient]
        if any(stage is None for stage in stages):
            problems.append(f"{n}: a flow stage produced no output")
    fallbacks = sum(int((r.solver_stats or {}).get("robust_fallbacks", 0))
                    for r in results.values())
    if fallbacks:
        problems.append(f"robust_fallbacks = {fallbacks}, expected 0")
    return problems + check_paper_rows(rows, scale, seed)


def check_paper_rows(rows: Dict[str, object], scale: float,
                     seed: int) -> List[str]:
    """Finite table values, and at the reference seed equality with the
    committed reference rows."""
    problems = []
    bad: List[str] = []
    _finite_numbers(rows, "rows", bad)
    if bad:
        problems.append(f"non-finite table values: {bad[:5]}")
    if seed == REFERENCE_SEED:
        path = reference_path(scale, seed)
        if path.exists():
            reference = json.loads(path.read_text())
            problems.extend(compare_rows(rows, reference))
        else:
            print(f"note: no committed reference {path.name}; the seed "
                  f"{seed} rows are checked for completeness only",
                  file=sys.stderr)
    return problems


def compare_rows(rows: Dict[str, object],
                 reference: Dict[str, object], path: str = "") -> List[str]:
    """Differences between produced and reference rows."""
    if isinstance(reference, dict) and isinstance(rows, dict):
        out = []
        for key in sorted(set(reference) | set(rows)):
            if key not in rows or key not in reference:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out.extend(compare_rows(rows[key], reference[key],
                                        f"{path}.{key}"))
        return out
    if rows != reference:
        return [f"{path}: {rows!r} != reference {reference!r}"]
    return []


def _paper_entries(rows: Dict[str, object], paper
                   ) -> List[Tuple[str, float, float]]:
    """(label, measured, paper) for the fixed entry list."""
    t3 = [("fmax_mhz", "fmax"), ("total_power_mw", "power_mw"),
          ("wirelength_m", "wl_m"), ("cell_count", "cells")]
    t4 = [("area_mm2", "area_mm2"), ("power_mw", "power_mw"),
          ("total_wl_mm", "total_wl"), ("max_wl_mm", "max_wl"),
          ("via_usage", "vias"), ("pdn_impedance_ohm", "pdn_ohm"),
          ("settling_time_us", "settle_us"), ("ir_drop_mv", "ir_mv")]
    t5 = [("interconnect_delay_ps", 1), ("interconnect_power_uw", 2)]
    claims = [("area_reduction_x", "area_x"),
              ("wirelength_reduction_x", "wl_x"),
              ("fullchip_power_saving_pct", "power_pct"),
              ("signal_integrity_gain_pct", "si_pct"),
              ("power_integrity_improvement_x", "pi_x"),
              ("thermal_increase_pct", "thermal_pct")]
    out = []
    for n in DESIGNS:
        for kind in ("logic", "memory"):
            for ours, theirs in t3:
                out.append((f"t3.{n}.{kind}.{ours}",
                            rows["table3"][n][kind][ours],
                            paper.TABLE3[n][kind][theirs]))
        for ours, theirs in t4:
            value = paper.TABLE4[n].get(theirs)
            if ours in rows["table4"][n] and isinstance(value, (int, float)):
                out.append((f"t4.{n}.{ours}", rows["table4"][n][ours],
                            value))
        for label, link in (("logic_to_mem", "l2m"),
                            ("logic_to_logic", "l2l")):
            for ours, index in t5:
                if (n, link, index) == ("glass_25d", "l2m", 1):
                    continue  # marked as a paper typo in paper_data.py
                out.append((f"t5.{n}.{link}.{ours}",
                            rows["table5"][n][label][ours],
                            paper.TABLE5[n][link][index]))
    for ours, theirs in claims:
        out.append((f"claims.{ours}", rows["claims"][ours],
                    paper.CLAIMS[theirs]))
    return [(label, float(m), float(p)) for label, m, p in out if p != 0]


def paper_err_pct(rows: Dict[str, object], root: Path) -> float:
    """Mean absolute relative error (%) against the paper's numbers."""
    sys.path.insert(0, str(root / "benchmarks"))
    try:
        import paper_data
    finally:
        sys.path.pop(0)
    entries = _paper_entries(rows, paper_data)
    return 100.0 * sum(abs(m - p) / abs(p)
                       for _label, m, p in entries) / len(entries)


def check_nchiplet(result, system, expected_parts: int) -> List[str]:
    """Problems with a 9-die ``run_design`` result (empty when correct).

    Checks the part count, that every instance of the system netlist
    lands in exactly one part, and that every cut link was routed on
    the interposer or stacked.
    """
    from repro.partition.multiway import pairwise_cut_links

    problems = []
    chiplets = result.chiplets or ()
    if len(chiplets) != expected_parts:
        problems.append(f"{len(chiplets)} parts, expected {expected_parts}")
    owner: Dict[str, int] = {}
    repeated = 0
    for i, chiplet in enumerate(chiplets):
        for name in chiplet.netlist.instances:
            if name in owner:
                repeated += 1
            owner[name] = i
    system_names = set(system.instances)
    if repeated or set(owner) != system_names:
        problems.append(
            f"instances: {repeated} in more than one part, "
            f"{len(system_names - set(owner))} in none, "
            f"{len(set(owner) - system_names)} unknown")
        return problems
    expected_links = sum(pairwise_cut_links(system, owner).values())
    nets = result.route.nets if result.route is not None else []
    unrouted = [n.name for n in nets
                if n.kind != "stacked_via" and not n.path]
    if len(nets) != expected_links or unrouted:
        problems.append(f"{len(nets)} link nets for {expected_links} cut "
                        f"links, {len(unrouted)} unrouted")
    return problems


def median(values: Sequence[float]) -> float:
    """Median of ``values``; 0 if empty."""
    return percentile(values, 50)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0 if empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
