"""Analysis: statistics, economics, figures, the experiment registry."""

from repro.analysis.economics import (
    ExposureEstimate,
    ScreeningPolicy,
    exposure_before_detection,
    policy_frontier,
)
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.figures import (
    render_fig1,
    render_series,
    render_table,
)
from repro.analysis.stats import (
    RateEstimate,
    orders_of_magnitude_spread,
    poisson_rate_ci,
    trend_slope,
)

__all__ = [
    "ExposureEstimate",
    "ScreeningPolicy",
    "exposure_before_detection",
    "policy_frontier",
    "EXPERIMENTS",
    "render_fig1",
    "render_series",
    "render_table",
    "RateEstimate",
    "orders_of_magnitude_spread",
    "poisson_rate_ci",
    "trend_slope",
]
