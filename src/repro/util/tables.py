"""Plain-text rendering of experiment outputs.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_label: str,
    x_values: Sequence[object],
    title: str = "",
    precision: int = 4,
) -> str:
    """Render one or more named series against shared x values.

    This is the textual equivalent of a paper figure: one row per x value,
    one column per curve.
    """
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row: list[object] = [x]
        for name in series:
            values = series[name]
            if len(values) != len(x_values):
                raise ValueError(
                    f"series {name!r} has {len(values)} points but there are "
                    f"{len(x_values)} x values"
                )
            row.append(round(float(values[i]), precision))
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_histogram(
    pmf: Mapping[int, float],
    title: str = "",
    width: int = 40,
) -> str:
    """Render a pmf as an ASCII bar chart — the text analogue of a figure.

    Bars are scaled to the modal probability; outcomes below 5e-4 at both
    tails are trimmed for readability.
    """
    if not pmf:
        raise ValueError("cannot render an empty distribution")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    outcomes = sorted(pmf)
    visible = [x for x in outcomes if pmf[x] >= 5e-4]
    if visible:
        low, high = visible[0], visible[-1]
        outcomes = [x for x in outcomes if low <= x <= high]
    peak = max(pmf[x] for x in outcomes)
    if peak <= 0:
        raise ValueError("distribution has no positive mass")
    label_width = max(len(str(x)) for x in outcomes)
    lines = [title] if title else []
    for x in outcomes:
        bar = "█" * max(0, round(pmf[x] / peak * width))
        lines.append(f"{str(x).rjust(label_width)} |{bar.ljust(width)}| {pmf[x]:.4f}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.6g}"
    return str(cell)
