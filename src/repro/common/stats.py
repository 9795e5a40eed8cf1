"""Small statistics helpers used by the analysis and experiment layers.

The paper reports box-and-whisker plots (Figures 7 and 8) and CDFs
(Figure 4); these helpers compute the matching summaries so that
experiment drivers can print the same series the paper plots.
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values; 0.0 if empty."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of pre-sorted ``sorted_values``.

    ``fraction`` is the quantile as a fraction (0.25 = Q1), not a
    percentage; anything outside [0.0, 1.0] would silently index past
    the ends of the data, so it is rejected.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(
            f"percentile fraction must be within [0.0, 1.0], "
            f"got {fraction!r}"
        )
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    low, high = sorted_values[lower], sorted_values[upper]
    # Rounding (subnormal underflow, say) can carry the blend just
    # outside its neighbours; clamp so a quantile never leaves them.
    return min(max(low * (1 - weight) + high * weight, low), high)


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary matching the paper's box-and-whisker plots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int

    @property
    def iqr(self) -> float:
        """Inter-quartile range (Q3 - Q1)."""
        return self.q3 - self.q1

    def format_row(self, label: str, scale: float = 1.0) -> str:
        """One report line: label, min/Q1/median/Q3/max (scaled)."""
        return (
            f"{label:<28s} min={self.minimum / scale:8.3f} "
            f"q1={self.q1 / scale:8.3f} med={self.median / scale:8.3f} "
            f"q3={self.q3 / scale:8.3f} max={self.maximum / scale:8.3f} "
            f"(n={self.count})"
        )


def boxplot(values: Iterable[float]) -> BoxplotSummary:
    """Compute the five-number summary the paper's Figures 7-8 plot."""
    data = sorted(values)
    if not data:
        raise ValueError("boxplot of empty sequence")
    return BoxplotSummary(
        minimum=data[0],
        q1=percentile(data, 0.25),
        median=percentile(data, 0.50),
        q3=percentile(data, 0.75),
        maximum=data[-1],
        count=len(data),
    )


class Cdf:
    """Empirical CDF over integer-valued samples (paper, Figure 4)."""

    def __init__(self, samples: Iterable[int]) -> None:
        self._counts: Dict[int, int] = {}
        self._total = 0
        for sample in samples:
            self._counts[sample] = self._counts.get(sample, 0) + 1
            self._total += 1

    @property
    def total(self) -> int:
        """Sum over all categories/values."""
        return self._total

    def fraction_at_most(self, value: int) -> float:
        """P(X <= value)."""
        if self._total == 0:
            return 0.0
        covered = sum(c for v, c in self._counts.items() if v <= value)
        return covered / self._total

    def fraction_at_least(self, value: int) -> float:
        """P(X >= value)."""
        return 1.0 - self.fraction_at_most(value - 1)

    def points(self) -> List[Tuple[int, float]]:
        """The (value, cumulative fraction) series, ascending by value."""
        series = []
        acc = 0
        for value in sorted(self._counts):
            acc += self._counts[value]
            series.append((value, acc / self._total))
        return series
