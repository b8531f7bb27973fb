"""Plain-text rendering helpers for tables and figure series."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render rows as an aligned ASCII table."""
    rendered_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_label: str,
    points: Sequence[Sequence[object]],
    title: str = "",
    width: int = 40,
) -> str:
    """Render an (x, y) series with a proportional ASCII bar per row;
    a ``None`` y was not measured and prints as ``missing``."""
    numeric = [
        None if point[1] is None else float(point[1]) for point in points
    ]
    measured = [value for value in numeric if value is not None]
    peak = max(measured) if measured else 1.0
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{x_label:>12} | {y_label}")
    for point, value in zip(points, numeric):
        if value is None:
            lines.append(f"{str(point[0]):>12} | {'missing':>14}")
            continue
        bar = "#" * int(round(width * value / peak)) if peak > 0 else ""
        lines.append(f"{str(point[0]):>12} | {value:>14,.4g} {bar}")
    return "\n".join(lines)


def percent(value: float, digits: int = 1) -> str:
    return f"{value * 100:.{digits}f}%"
