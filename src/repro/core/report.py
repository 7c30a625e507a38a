"""Plain-text table formatting for flow results.

Formats the reproduction's outputs the way the paper's tables are laid
out, so benchmark logs read side-by-side against the published numbers.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table.

    Args:
        headers: Column headers.
        rows: Row cell values (stringified).
        title: Optional title line.
    """
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected "
                             f"{len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 10:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def format_comparison(metric_rows: Mapping[str, Sequence[object]],
                      design_names: Sequence[str],
                      title: Optional[str] = None) -> str:
    """Metrics-as-rows / designs-as-columns layout (the paper's style).

    Args:
        metric_rows: metric name → per-design values.
        design_names: Column order.
        title: Optional title.
    """
    headers = ["metric"] + list(design_names)
    rows = [[name] + list(values) for name, values in metric_rows.items()]
    return format_table(headers, rows, title=title)
