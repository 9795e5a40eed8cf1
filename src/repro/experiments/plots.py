"""Plain-text charts: bars, CDF curves, and box plots for the CLI.

The paper's figures are bar charts, CDFs, and box-and-whisker plots;
these helpers render the same shapes in monospace text so ``satr``
output can be eyeballed against the paper without a plotting stack.
"""

from typing import Dict, Sequence, Tuple

from repro.common.stats import BoxplotSummary

BAR_CHAR = "█"
HALF_CHAR = "▌"


def bar_chart(values: Dict[str, float], width: int = 44,
              title: str = "", unit: str = "") -> str:
    """Horizontal bar chart, one row per labelled value."""
    if not values:
        return title
    peak = max(values.values()) or 1.0
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        filled = value / peak * width
        bar = BAR_CHAR * int(filled)
        if filled - int(filled) >= 0.5:
            bar += HALF_CHAR
        lines.append(f"{label:<{label_width}}  {bar} {value:g}{unit}")
    return "\n".join(lines)


def percent_bar_chart(values: Dict[str, float], width: int = 44,
                      title: str = "") -> str:
    """Bar chart for percentages, with a fixed 100% scale."""
    if not values:
        return title
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        filled = min(max(value, 0.0), 150.0) / 100.0 * width
        bar = BAR_CHAR * int(filled)
        lines.append(f"{label:<{label_width}}  {bar} {value:.1f}%")
    return "\n".join(lines)


def cdf_plot(points: Sequence[Tuple[int, float]], width: int = 40,
             title: str = "") -> str:
    """A cumulative-distribution staircase (value rows, fraction bars)."""
    lines = [title] if title else []
    for value, fraction in points:
        bar = BAR_CHAR * int(fraction * width)
        lines.append(f"{value:>4d} | {bar} {100 * fraction:.0f}%")
    return "\n".join(lines)


def boxplot_strip(box: BoxplotSummary, lo: float, hi: float,
                  width: int = 50) -> str:
    """One box-and-whisker strip scaled into ``[lo, hi]``.

    Rendered as ``|----[==M==]----|`` (whiskers, quartile box, median).
    """
    span = max(hi - lo, 1e-12)

    def column(value: float) -> int:
        return int((value - lo) / span * (width - 1))

    cells = [" "] * width
    left, right = column(box.minimum), column(box.maximum)
    for position in range(left, right + 1):
        cells[position] = "-"
    cells[left] = "|"
    cells[right] = "|"
    q1, q3 = column(box.q1), column(box.q3)
    for position in range(q1, q3 + 1):
        cells[position] = "="
    cells[q1] = "["
    cells[q3] = "]"
    cells[column(box.median)] = "M"
    return "".join(cells)


def boxplot_panel(series: Dict[str, BoxplotSummary], width: int = 50,
                  title: str = "", scale: float = 1.0,
                  unit: str = "") -> str:
    """Aligned box plots for several series on one shared axis."""
    if not series:
        return title
    lo = min(box.minimum for box in series.values())
    hi = max(box.maximum for box in series.values())
    label_width = max(len(label) for label in series)
    lines = [title] if title else []
    for label, box in series.items():
        strip = boxplot_strip(box, lo, hi, width)
        lines.append(
            f"{label:<{label_width}}  {strip}  med={box.median / scale:.2f}"
            f"{unit}"
        )
    lines.append(
        f"{'':<{label_width}}  {lo / scale:<{width // 2}.2f}"
        f"{hi / scale:>{width - width // 2}.2f}"
    )
    return "\n".join(lines)
