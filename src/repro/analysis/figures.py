"""Text renderers for the paper's figure and the experiment tables.

Benchmarks print these so a terminal run of the harness shows the same
rows/series the paper reports.  (No plotting dependencies: the paper's
single figure is two time series, which a bar chart in text conveys.)
"""

from __future__ import annotations

from typing import Sequence

_BAR = "▏▎▍▌▋▊▉█"
#: characters in a full-scale bar
BAR_WIDTH = 40


def render_series(series: Sequence[tuple[float, float]], title: str) -> str:
    """One horizontal bar per bucket, labeled with time and value."""
    lines = [title]
    values = [v for _, v in series]
    peak = max(values) if values and max(values) > 0 else 1.0
    for t, v in series:
        filled = v / peak * BAR_WIDTH
        whole = int(filled)
        fraction = filled - whole
        bar = "█" * whole
        if fraction > 0 and whole < BAR_WIDTH:
            bar += _BAR[int(fraction * len(_BAR))]
        lines.append(f"  t={t:>6.0f}d |{bar:<{BAR_WIDTH + 1}s}| {v:.2f}")
    return "\n".join(lines)


def render_fig1(
    auto_series: Sequence[tuple[float, float]],
    human_series: Sequence[tuple[float, float]],
) -> str:
    """Figure 1: normalized reported CEE rates, both series.

    Both series are normalized to the same arbitrary baseline (the
    human series' mean), matching the paper's "normalized to an
    arbitrary baseline".
    """
    human_values = [v for _, v in human_series]
    baseline = (sum(human_values) / len(human_values)) if human_values else 1.0
    if baseline == 0:
        baseline = 1.0
    auto_n = [(t, v / baseline) for t, v in auto_series]
    human_n = [(t, v / baseline) for t, v in human_series]
    parts = [
        "Figure 1: Reported CEE rates (normalized)",
        render_series(auto_n, "  automatically-reported:"),
        render_series(human_n, "  user-reported:"),
    ]
    return "\n".join(parts)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Plain monospace table."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)
