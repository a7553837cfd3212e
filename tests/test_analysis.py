"""Statistics, economics, and figure rendering."""

import math

import pytest

from repro.analysis.economics import (
    ScreeningPolicy,
    exposure_before_detection,
    policy_frontier,
)
from repro.analysis.figures import (
    render_fig1,
    render_series,
    render_table,
)
from repro.analysis.stats import (
    orders_of_magnitude_spread,
    poisson_rate_ci,
    trend_slope,
)


class TestPoissonCi:
    def test_point_estimate(self):
        estimate = poisson_rate_ci(10, 100.0)
        assert estimate.rate == pytest.approx(0.1)

    def test_interval_contains_rate(self):
        estimate = poisson_rate_ci(10, 100.0)
        assert estimate.lower < estimate.rate < estimate.upper

    def test_zero_events_lower_bound_zero(self):
        estimate = poisson_rate_ci(0, 50.0)
        assert estimate.lower == 0.0
        assert estimate.upper > 0.0

    def test_more_events_tighter_relative_interval(self):
        small = poisson_rate_ci(5, 10.0)
        large = poisson_rate_ci(500, 1000.0)
        rel_small = (small.upper - small.lower) / small.rate
        rel_large = (large.upper - large.lower) / large.rate
        assert rel_large < rel_small

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_rate_ci(1, 0.0)


class TestTrendAndSpread:
    def test_trend_slope_sign(self):
        rising = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        falling = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)]
        assert trend_slope(rising) > 0
        assert trend_slope(falling) < 0
        assert trend_slope([(0.0, 1.0)]) == 0.0

    def test_orders_of_magnitude(self):
        assert orders_of_magnitude_spread([1e-7, 1e-3]) == pytest.approx(4.0)
        assert orders_of_magnitude_spread([0.0, 1e-3]) == 0.0


class TestScreeningEconomics:
    def test_detection_probability_monotone_in_effort(self):
        cheap = ScreeningPolicy(period_days=7.0, corpus_ops=1e4)
        rich = ScreeningPolicy(period_days=7.0, corpus_ops=1e6)
        rate = 1e-6
        assert rich.detection_probability(rate) > cheap.detection_probability(rate)

    def test_stress_boost_shortens_detection(self):
        online = ScreeningPolicy(period_days=7.0, corpus_ops=1e5, env_boost=1.0)
        offline = ScreeningPolicy(period_days=7.0, corpus_ops=1e5, env_boost=10.0)
        rate = 1e-7
        assert offline.expected_days_to_detect(rate) < \
            online.expected_days_to_detect(rate)

    def test_undetectable_rate_is_infinite_wait(self):
        policy = ScreeningPolicy(period_days=7.0, corpus_ops=1e5)
        assert math.isinf(policy.expected_days_to_detect(0.0))

    def test_exposure_scales_with_latency(self):
        policy = ScreeningPolicy(period_days=30.0, corpus_ops=1e4)
        slow = exposure_before_detection(policy, 1e-7)
        fast = exposure_before_detection(
            ScreeningPolicy(period_days=1.0, corpus_ops=1e6), 1e-7
        )
        assert fast.corruptions_before_detection < slow.corruptions_before_detection

    def test_frontier_rows_complete(self):
        policies = [
            ScreeningPolicy(period_days=7.0, corpus_ops=1e5),
            ScreeningPolicy(period_days=30.0, corpus_ops=1e6, env_boost=5.0),
        ]
        rows = policy_frontier(policies, [1e-6, 1e-5, 1e-4])
        assert len(rows) == 2
        for row in rows:
            assert row["detectable_fraction"] > 0
            assert row["compute_cost_fraction"] > 0


class TestFigures:
    def test_render_series_contains_values(self):
        text = render_series([(0.0, 1.0), (30.0, 2.0)], "title")
        assert "title" in text and "t=" in text

    def test_render_fig1_has_both_series(self):
        auto = [(0.0, 0.001), (30.0, 0.002)]
        human = [(0.0, 0.001), (30.0, 0.001)]
        text = render_fig1(auto, human)
        assert "automatically-reported" in text
        assert "user-reported" in text
        assert "normalized" in text

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_empty_table(self):
        text = render_table(["x"], [])
        assert "x" in text
