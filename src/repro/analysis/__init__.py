"""Analysis: statistics, economics, figures, the experiment registry."""

from repro.analysis.economics import (
    ExposureEstimate,
    ScreeningPolicy,
    exposure_before_detection,
    false_positive_cost,
    policy_frontier,
)
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.figures import (
    normalize_series,
    render_fig1,
    render_series,
    render_table,
)
from repro.analysis.stats import (
    RateEstimate,
    binomial_ci,
    exposure_needed,
    orders_of_magnitude_spread,
    poisson_rate_ci,
    trend_slope,
)

__all__ = [
    "ExposureEstimate",
    "ScreeningPolicy",
    "exposure_before_detection",
    "false_positive_cost",
    "policy_frontier",
    "EXPERIMENTS",
    "normalize_series",
    "render_fig1",
    "render_series",
    "render_table",
    "RateEstimate",
    "binomial_ci",
    "exposure_needed",
    "orders_of_magnitude_spread",
    "poisson_rate_ci",
    "trend_slope",
]
