"""Statistics for rate estimation with honest uncertainty.

§4: "quantifying their values in practice is also difficult and
expensive, because it requires running tests on many machines,
potentially for a long time, before one can get high-confidence
results — we don't even know yet how many or how long."

These estimators answer the first half of that operational question:
given an observed count, what is the rate's confidence interval.
"""

from __future__ import annotations

import dataclasses
import math

from scipy import stats as _scipy_stats


#: two-sided coverage of every rate interval
CONFIDENCE = 0.95


@dataclasses.dataclass(frozen=True)
class RateEstimate:
    """A Poisson rate estimate with its :data:`CONFIDENCE` interval."""

    events: int
    exposure: float          # e.g. machine-days or core-ops
    rate: float
    lower: float
    upper: float


def poisson_rate_ci(events: int, exposure: float) -> RateEstimate:
    """Exact (Garwood) Poisson rate confidence interval.

    Args:
        events: observed event count.
        exposure: total observation (machine-days, ops, ...).
    """
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    if events < 0:
        raise ValueError("events must be non-negative")
    alpha = 1.0 - CONFIDENCE
    if events == 0:
        lower = 0.0
    else:
        lower = _scipy_stats.chi2.ppf(alpha / 2, 2 * events) / 2
    upper = _scipy_stats.chi2.ppf(1 - alpha / 2, 2 * events + 2) / 2
    return RateEstimate(
        events=events,
        exposure=exposure,
        rate=events / exposure,
        lower=lower / exposure,
        upper=upper / exposure,
    )


def trend_slope(series: list[tuple[float, float]]) -> float:
    """Least-squares slope of a (time, value) series.

    Used to verify Fig. 1's "gradually increasing" automated rate.
    """
    if len(series) < 2:
        return 0.0
    n = len(series)
    mean_x = sum(x for x, _ in series) / n
    mean_y = sum(y for _, y in series) / n
    ss_xx = sum((x - mean_x) ** 2 for x, _ in series)
    if ss_xx == 0:
        return 0.0
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in series)
    return ss_xy / ss_xx


def orders_of_magnitude_spread(rates: list[float]) -> float:
    """log10(max/min) over positive rates — §2's 'many orders of
    magnitude' claim, quantified."""
    positive = [r for r in rates if r > 0]
    if len(positive) < 2:
        return 0.0
    return math.log10(max(positive) / min(positive))
