"""The §4 metrics."""

import math

import pytest

from repro.core.metrics import (
    Confusion,
    confusion,
    incidence_per_kmachine,
    onset_stats,
)


class TestConfusion:
    def test_counts(self):
        truth = {"a": True, "b": True, "c": False, "d": False}
        result = confusion(truth, flagged={"a", "c"})
        assert (result.true_positives, result.false_positives,
                result.false_negatives, result.true_negatives) == (1, 1, 1, 1)

    def test_precision_recall(self):
        result = Confusion(8, 2, 4, 100)
        assert result.precision == pytest.approx(0.8)
        assert result.recall == pytest.approx(8 / 12)

    def test_empty_denominators(self):
        empty = Confusion(0, 0, 0, 0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0


class TestIncidence:
    def test_per_kmachine(self):
        assert incidence_per_kmachine(4, 4000) == pytest.approx(1.0)

    def test_zero_machines_rejected(self):
        with pytest.raises(ValueError):
            incidence_per_kmachine(1, 0)


class TestOnsetStats:
    def test_censoring_counts_beyond_horizon(self):
        stats = onset_stats([10.0, 20.0, 900.0, 1000.0], horizon_days=365.0)
        assert stats.observed == 2
        assert stats.censored == 2
        assert stats.censored_fraction == 0.5
        assert stats.median_days == pytest.approx(15.0)

    def test_all_censored_yields_nan(self):
        stats = onset_stats([400.0], horizon_days=365.0)
        assert stats.observed == 0
        assert math.isnan(stats.mean_days)
