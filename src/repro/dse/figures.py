"""Deterministic SVG chart rendering for sweep reports.

The report layer (:mod:`repro.dse.report`) needs figures that are a
*pure function* of the sweep data: regenerating a report from the same
sweep directory must produce hash-identical files (the snapshot
guarantee pinned by ``tests/dse/test_report.py``).  Matplotlib output
is not byte-stable across versions — and is not installed in minimal
environments — so this module renders scatter/bar/funnel charts
directly to SVG with fixed-precision coordinates and no timestamps.

Usage::

    from repro.dse.figures import Series, scatter_svg

    svg = scatter_svg(
        [Series("glass_25d", [(1.0, 2.0), (1.5, 1.2)])],
        xlabel="cost_usd", ylabel="power_mw", title="Pareto",
        front=[(1.0, 2.0)])
    Path("pareto.svg").write_text(svg)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Categorical palette + marker shapes, keyed in first-use order; the
#: six paper packages land on stable styles because the report sorts
#: series labels before assignment.
PALETTE = ("#1b6ca8", "#c44536", "#2d8a4e", "#8a5fbf", "#c98a1b",
           "#4a5568", "#7a9e2f", "#a8326e")
MARKERS = ("circle", "square", "triangle", "diamond", "cross", "plus",
           "circle", "square")

#: Canvas geometry (px).
WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 44, 52
FONT = "font-family=\"Helvetica,Arial,sans-serif\""


@dataclass
class Series:
    """One labelled point set of a scatter chart."""

    label: str
    points: List[Tuple[float, float]]


def _f(x: float) -> str:
    """Fixed-precision coordinate (the determinism anchor)."""
    return f"{x:.2f}"


def _esc(text: str) -> str:
    """Escape a string for SVG text/attribute content."""
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """A 1-2-5 tick sequence covering ``[lo, hi]`` (deterministic)."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / max(1, target)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(value: float) -> str:
    """Compact deterministic tick label."""
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _marker(shape: str, x: float, y: float, r: float, color: str,
            filled: bool = True) -> str:
    """One data marker as an SVG fragment."""
    fill = color if filled else "none"
    stroke = f'stroke="{color}" stroke-width="1.4"'
    if shape == "square":
        return (f'<rect x="{_f(x - r)}" y="{_f(y - r)}" '
                f'width="{_f(2 * r)}" height="{_f(2 * r)}" '
                f'fill="{fill}" {stroke}/>')
    if shape == "triangle":
        pts = " ".join(f"{_f(px)},{_f(py)}" for px, py in
                       [(x, y - r), (x - r, y + r), (x + r, y + r)])
        return f'<polygon points="{pts}" fill="{fill}" {stroke}/>'
    if shape == "diamond":
        pts = " ".join(f"{_f(px)},{_f(py)}" for px, py in
                       [(x, y - r), (x + r, y), (x, y + r), (x - r, y)])
        return f'<polygon points="{pts}" fill="{fill}" {stroke}/>'
    if shape == "cross":
        return (f'<path d="M {_f(x - r)} {_f(y - r)} L {_f(x + r)} '
                f'{_f(y + r)} M {_f(x - r)} {_f(y + r)} L {_f(x + r)} '
                f'{_f(y - r)}" fill="none" {stroke}/>')
    if shape == "plus":
        return (f'<path d="M {_f(x)} {_f(y - r)} L {_f(x)} {_f(y + r)} '
                f'M {_f(x - r)} {_f(y)} L {_f(x + r)} {_f(y)}" '
                f'fill="none" {stroke}/>')
    return (f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" '
            f'fill="{fill}" {stroke}/>')


def _svg_open(title: str) -> List[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-size="15" font-weight="bold" {FONT}>{_esc(title)}</text>',
    ]


def _axes(parts: List[str], x0: float, y0: float, x1: float, y1: float,
          xticks: Sequence[float], yticks: Sequence[float],
          to_px, xlabel: str, ylabel: str) -> None:
    """Draw the frame, grid, ticks and axis labels into ``parts``."""
    parts.append(f'<rect x="{_f(x0)}" y="{_f(y1)}" '
                 f'width="{_f(x1 - x0)}" height="{_f(y0 - y1)}" '
                 f'fill="none" stroke="#4a5568" stroke-width="1"/>')
    for t in xticks:
        px, _ = to_px(t, 0.0)
        parts.append(f'<line x1="{_f(px)}" y1="{_f(y0)}" x2="{_f(px)}" '
                     f'y2="{_f(y1)}" stroke="#e2e8f0" '
                     f'stroke-width="0.7"/>')
        parts.append(f'<text x="{_f(px)}" y="{_f(y0 + 16)}" '
                     f'text-anchor="middle" font-size="11" {FONT}>'
                     f'{_esc(_tick_label(t))}</text>')
    for t in yticks:
        _, py = to_px(0.0, t)
        parts.append(f'<line x1="{_f(x0)}" y1="{_f(py)}" x2="{_f(x1)}" '
                     f'y2="{_f(py)}" stroke="#e2e8f0" '
                     f'stroke-width="0.7"/>')
        parts.append(f'<text x="{_f(x0 - 6)}" y="{_f(py + 4)}" '
                     f'text-anchor="end" font-size="11" {FONT}>'
                     f'{_esc(_tick_label(t))}</text>')
    parts.append(f'<text x="{_f((x0 + x1) / 2)}" y="{HEIGHT - 14}" '
                 f'text-anchor="middle" font-size="12" {FONT}>'
                 f'{_esc(xlabel)}</text>')
    parts.append(f'<text x="18" y="{_f((y0 + y1) / 2)}" '
                 f'text-anchor="middle" font-size="12" {FONT} '
                 f'transform="rotate(-90 18 {_f((y0 + y1) / 2)})">'
                 f'{_esc(ylabel)}</text>')


def scatter_svg(series: Sequence[Series], xlabel: str, ylabel: str,
                title: str,
                front: Sequence[Tuple[float, float]] = ()) -> str:
    """Scatter chart with optional Pareto-front highlighting.

    Args:
        series: Labelled point groups; each gets a stable color/marker
            by its position in the sequence.
        xlabel: X-axis metric name.
        ylabel: Y-axis metric name.
        title: Chart title.
        front: Points to highlight as Pareto-front members (drawn with
            a ring and connected, sorted by x, with a step line).
    """
    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] for s in series for p in s.points]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    xpad = (xhi - xlo) * 0.08 or (abs(xhi) * 0.1 or 1.0)
    ypad = (yhi - ylo) * 0.08 or (abs(yhi) * 0.1 or 1.0)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T

    def to_px(x: float, y: float) -> Tuple[float, float]:
        return (x0 + (x - xlo) / (xhi - xlo) * (x1 - x0),
                y0 - (y - ylo) / (yhi - ylo) * (y0 - y1))

    parts = _svg_open(title)
    _axes(parts, x0, y0, x1, y1, nice_ticks(xlo, xhi),
          nice_ticks(ylo, yhi), to_px, xlabel, ylabel)

    if front:
        ordered = sorted(front)
        pts = []
        for fx, fy in ordered:
            px, py = to_px(fx, fy)
            pts.append(f"{_f(px)},{_f(py)}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="#c44536" stroke-width="1.2" '
                     f'stroke-dasharray="5,3"/>')
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        shape = MARKERS[i % len(MARKERS)]
        for px_val, py_val in s.points:
            px, py = to_px(px_val, py_val)
            parts.append(_marker(shape, px, py, 4.5, color))
    front_set = {(_f(p[0]), _f(p[1])) for p in front}
    for s in series:
        for px_val, py_val in s.points:
            if (_f(px_val), _f(py_val)) in front_set:
                px, py = to_px(px_val, py_val)
                parts.append(f'<circle cx="{_f(px)}" cy="{_f(py)}" '
                             f'r="8" fill="none" stroke="#c44536" '
                             f'stroke-width="1.6"/>')

    legend_x = WIDTH - MARGIN_R + 14
    ly = MARGIN_T + 6
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        shape = MARKERS[i % len(MARKERS)]
        parts.append(_marker(shape, legend_x, ly - 3, 4.5, color))
        parts.append(f'<text x="{legend_x + 12}" y="{ly}" '
                     f'font-size="11" {FONT}>{_esc(s.label)}</text>')
        ly += 18
    if front:
        parts.append(f'<circle cx="{legend_x}" cy="{ly - 3}" r="6" '
                     f'fill="none" stroke="#c44536" '
                     f'stroke-width="1.6"/>')
        parts.append(f'<text x="{legend_x + 12}" y="{ly}" '
                     f'font-size="11" {FONT}>Pareto front</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def hbar_svg(rows: Sequence[Tuple[str, float]], title: str,
             xlabel: str, color_by_sign: bool = False,
             annotations: Optional[Sequence[str]] = None) -> str:
    """Horizontal bar chart (sensitivity, funnel, runtime views).

    Args:
        rows: ``(label, value)`` pairs, drawn top to bottom in order.
        title: Chart title.
        xlabel: Value-axis label.
        color_by_sign: Color negative bars differently (diverging
            elasticities).
        annotations: Optional per-row text drawn at the bar tip.
    """
    height = max(HEIGHT // 2,
                 MARGIN_T + MARGIN_B + 24 * max(1, len(rows)))
    values = [v for _, v in rows] or [0.0, 1.0]
    lo = min(0.0, min(values))
    hi = max(0.0, max(values))
    if hi == lo:
        hi = lo + 1.0
    pad = (hi - lo) * 0.1
    lo, hi = lo - (pad if lo < 0 else 0.0), hi + pad
    x0, x1 = 190, WIDTH - 40
    y = MARGIN_T + 8

    def xpx(v: float) -> float:
        return x0 + (v - lo) / (hi - lo) * (x1 - x0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-size="15" font-weight="bold" {FONT}>{_esc(title)}</text>',
    ]
    for t in nice_ticks(lo, hi, 6):
        px = xpx(t)
        parts.append(f'<line x1="{_f(px)}" y1="{MARGIN_T}" '
                     f'x2="{_f(px)}" y2="{height - MARGIN_B}" '
                     f'stroke="#e2e8f0" stroke-width="0.7"/>')
        parts.append(f'<text x="{_f(px)}" y="{height - MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="11" {FONT}>'
                     f'{_esc(_tick_label(t))}</text>')
    zero = xpx(0.0)
    parts.append(f'<line x1="{_f(zero)}" y1="{MARGIN_T}" '
                 f'x2="{_f(zero)}" y2="{height - MARGIN_B}" '
                 f'stroke="#4a5568" stroke-width="1"/>')
    for i, (label, value) in enumerate(rows):
        color = PALETTE[0]
        if color_by_sign and value < 0:
            color = PALETTE[1]
        bx = min(zero, xpx(value))
        bw = abs(xpx(value) - zero)
        parts.append(f'<rect x="{_f(bx)}" y="{_f(y)}" '
                     f'width="{_f(max(bw, 0.5))}" height="14" '
                     f'fill="{color}" fill-opacity="0.85"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_f(y + 11)}" '
                     f'text-anchor="end" font-size="11" {FONT}>'
                     f'{_esc(label)}</text>')
        if annotations is not None:
            tip = max(zero, xpx(value)) + 5
            parts.append(f'<text x="{_f(tip)}" y="{_f(y + 11)}" '
                         f'font-size="10" fill="#4a5568" {FONT}>'
                         f'{_esc(annotations[i])}</text>')
        y += 24
    parts.append(f'<text x="{_f((x0 + x1) / 2)}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="12" {FONT}>'
                 f'{_esc(xlabel)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def funnel_svg(stages: Sequence[Tuple[str, int, int]],
               title: str) -> str:
    """Fidelity funnel: evaluated vs promoted per rung.

    Args:
        stages: ``(label, evaluated, promoted)`` per rung, cheapest
            first; the final rung passes ``promoted = -1`` (terminal).
        title: Chart title.
    """
    rows = []
    annotations = []
    for label, evaluated, promoted in stages:
        rows.append((label, float(evaluated)))
        if promoted >= 0:
            annotations.append(f"{promoted} promoted, "
                               f"{evaluated - promoted} pruned")
        else:
            annotations.append("final fidelity")
    return hbar_svg(rows, title, "points evaluated",
                    annotations=annotations)
