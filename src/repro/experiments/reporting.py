"""Plain-text rendering of experiment results (paper-style rows and series).

The benchmarks run in headless environments, so results are reported as
aligned text tables rather than plots; each bench prints the same rows or
series the corresponding paper figure shows.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned, pipe-separated text table."""
    string_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in string_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in string_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def worker_timing_note(n_workers: int) -> str:
    """The line under a table of update times measured by ``n_workers``
    processes, which compete for the same cores (empty for one)."""
    if n_workers <= 1:
        return ""
    return (
        f"\nnote: update times are wall-clock from {n_workers} worker processes "
        "sharing the cores; do not compare them with a sequential run's"
    )


def format_series(
    name: str, times: Sequence[float], values: Sequence[float], unit: str = ""
) -> str:
    """Render one (time, value) series as a compact text block."""
    points = ", ".join(
        f"({time:.0f}, {value:.3f})" for time, value in zip(times, values)
    )
    suffix = f" [{unit}]" if unit else ""
    return f"{name}{suffix}: {points}"


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 1000 or (abs(cell) < 0.01 and cell != 0.0):
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)
