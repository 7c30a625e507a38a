"""Design-rule checking for exported interposer layouts.

A mini-DRC engine over :class:`~repro.io.gdsii.GdsCell` geometry: path
width and same-layer spacing checks against the technology's Table I
rules.  This is the sign-off the paper's Xpedition flow performs before
GDS hand-off; here it doubles as an end-to-end consistency check that
the maze router's output actually honours the rules it was given.

Spacing uses exact segment-to-segment distance with a uniform spatial
hash, so full interposer layouts (thousands of segments) check in
milliseconds.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..tech.interposer import InterposerSpec
from .gdsii import GdsCell, GdsPath
from .layout import LAYER_RDL0


@dataclass
class DrcViolation:
    """One design-rule violation.

    Attributes:
        rule: ``"min_width"`` or ``"min_spacing"``.
        layer: GDSII layer it occurred on.
        measured_um: The offending dimension.
        required_um: The rule value.
        location: Approximate (x, y) in microns.
    """

    rule: str
    layer: int
    measured_um: float
    required_um: float
    location: Tuple[float, float]


@dataclass
class DrcReport:
    """Result of a DRC run.

    Attributes:
        violations: All violations found.
        checked_paths: Paths examined.
        checked_pairs: Segment pairs examined for spacing.
    """

    violations: List[DrcViolation]
    checked_paths: int
    checked_pairs: int

    @property
    def clean(self) -> bool:
        """Whether no violations were found."""
        return not self.violations


Segment = Tuple[float, float, float, float, float]  # x0,y0,x1,y1,width


def _segments(paths: Iterable[GdsPath]) -> List[Segment]:
    segs: List[Segment] = []
    for p in paths:
        for (x0, y0), (x1, y1) in zip(p.points, p.points[1:]):
            segs.append((x0, y0, x1, y1, p.width_um))
    return segs


def _seg_distance(a: Segment, b: Segment) -> float:
    """Minimum distance between two segments (centrelines)."""
    ax0, ay0, ax1, ay1, _ = a
    bx0, by0, bx1, by1, _ = b
    if _segments_intersect(a, b):
        return 0.0
    return min(_point_seg(ax0, ay0, b), _point_seg(ax1, ay1, b),
               _point_seg(bx0, by0, a), _point_seg(bx1, by1, a))


def _point_seg(px: float, py: float, seg: Segment) -> float:
    x0, y0, x1, y1, _ = seg
    dx, dy = x1 - x0, y1 - y0
    length2 = dx * dx + dy * dy
    if length2 <= 1e-18:
        return math.hypot(px - x0, py - y0)
    t = max(0.0, min(1.0, ((px - x0) * dx + (py - y0) * dy) / length2))
    return math.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


def _segments_intersect(a: Segment, b: Segment) -> bool:
    def orient(ox, oy, px, py, qx, qy):
        v = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    ax0, ay0, ax1, ay1, _ = a
    bx0, by0, bx1, by1, _ = b
    o1 = orient(ax0, ay0, ax1, ay1, bx0, by0)
    o2 = orient(ax0, ay0, ax1, ay1, bx1, by1)
    o3 = orient(bx0, by0, bx1, by1, ax0, ay0)
    o4 = orient(bx0, by0, bx1, by1, ax1, ay1)
    return o1 != o2 and o3 != o4 and o1 != 0 and o3 != 0


def check_cell(cell: GdsCell, spec: InterposerSpec,
               same_net_tolerance_um: float = 1e-6,
               bin_um: Optional[float] = None) -> DrcReport:
    """Run width and spacing checks on a cell's RDL layers.

    Adjacent segments of the *same* path (sharing an endpoint) are
    exempt from spacing, as are exactly-overlapping segment pairs
    (stacked via transitions of one net).

    Args:
        cell: The layout cell (typically from
            :func:`repro.io.layout.interposer_to_gds`).
        spec: Technology whose Table I rules apply.
        same_net_tolerance_um: Endpoint-sharing tolerance.
        bin_um: Spatial-hash bin (defaults to 8x the wire pitch).
    """
    min_w = spec.min_wire_width_um
    min_s = spec.min_wire_space_um
    bin_size = bin_um or 8.0 * spec.wire_pitch_um
    violations: List[DrcViolation] = []

    rdl_paths: Dict[int, List[GdsPath]] = defaultdict(list)
    for p in cell.paths:
        if p.layer >= LAYER_RDL0:
            rdl_paths[p.layer].append(p)

    checked_paths = 0
    checked_pairs = 0
    for layer, paths in rdl_paths.items():
        for p in paths:
            checked_paths += 1
            if p.width_um < min_w - 1e-9:
                violations.append(DrcViolation(
                    "min_width", layer, p.width_um, min_w,
                    p.points[0]))
        segs = _segments(paths)
        # Spatial hash of segment bounding boxes.
        grid: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for i, (x0, y0, x1, y1, w) in enumerate(segs):
            gx0 = int(min(x0, x1) // bin_size)
            gx1 = int(max(x0, x1) // bin_size)
            gy0 = int(min(y0, y1) // bin_size)
            gy1 = int(max(y0, y1) // bin_size)
            for gx in range(gx0, gx1 + 1):
                for gy in range(gy0, gy1 + 1):
                    grid[(gx, gy)].append(i)
        seen: set = set()
        for bucket in grid.values():
            for ii in range(len(bucket)):
                for jj in range(ii + 1, len(bucket)):
                    a, b = bucket[ii], bucket[jj]
                    if (a, b) in seen:
                        continue
                    seen.add((a, b))
                    sa, sb = segs[a], segs[b]
                    if _touch(sa, sb, same_net_tolerance_um):
                        continue
                    checked_pairs += 1
                    if _identical(sa, sb, same_net_tolerance_um):
                        continue  # duplicated same-net route
                    d = _seg_distance(sa, sb)
                    edge_gap = d - (sa[4] + sb[4]) / 2.0
                    if edge_gap < min_s - 1e-9:
                        loc = ((sa[0] + sa[2]) / 2.0,
                               (sa[1] + sa[3]) / 2.0)
                        violations.append(DrcViolation(
                            "min_spacing", layer, max(edge_gap, 0.0),
                            min_s, loc))
    return DrcReport(violations=violations, checked_paths=checked_paths,
                     checked_pairs=checked_pairs)


def _identical(a: Segment, b: Segment, tol: float) -> bool:
    """Whether two segments have the same endpoints (either order)."""
    fwd = (abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol
           and abs(a[2] - b[2]) <= tol and abs(a[3] - b[3]) <= tol)
    rev = (abs(a[0] - b[2]) <= tol and abs(a[1] - b[3]) <= tol
           and abs(a[2] - b[0]) <= tol and abs(a[3] - b[1]) <= tol)
    return fwd or rev


def _touch(a: Segment, b: Segment, tol: float) -> bool:
    """Whether two segments share an endpoint (same polyline)."""
    pts_a = ((a[0], a[1]), (a[2], a[3]))
    pts_b = ((b[0], b[1]), (b[2], b[3]))
    for pa in pts_a:
        for pb in pts_b:
            if abs(pa[0] - pb[0]) <= tol and abs(pa[1] - pb[1]) <= tol:
                return True
    return False
