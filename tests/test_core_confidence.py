"""Suspicion tracking."""

import pytest

from repro.core.confidence import SuspicionTracker


class TestSuspicionTracker:
    def test_recidivism_accumulates(self):
        tracker = SuspicionTracker()
        for _ in range(3):
            tracker.record("m0/c0", now_days=0.0)
        assert tracker.score("m0/c0", 0.0) == pytest.approx(3.0)

    def test_decay_halves_per_half_life(self):
        tracker = SuspicionTracker(half_life_days=10.0)
        tracker.record("m0/c0", now_days=0.0, weight=4.0)
        assert tracker.score("m0/c0", 10.0) == pytest.approx(2.0)
        assert tracker.score("m0/c0", 20.0) == pytest.approx(1.0)

    def test_distinct_source_bonus(self):
        tracker = SuspicionTracker(source_bonus=0.5)
        tracker.record("m0/c0", 0.0, source="app-a")
        base = tracker.score("m0/c0", 0.0)
        tracker.record("m0/c0", 0.0, source="app-b")
        assert tracker.score("m0/c0", 0.0) == pytest.approx(base + 1.0 + 0.5)

    def test_same_source_gets_no_bonus(self):
        tracker = SuspicionTracker(source_bonus=0.5)
        tracker.record("m0/c0", 0.0, source="app-a")
        tracker.record("m0/c0", 0.0, source="app-a")
        assert tracker.score("m0/c0", 0.0) == pytest.approx(2.0)

    def test_suspects_sorted_and_thresholded(self):
        tracker = SuspicionTracker()
        tracker.record("a", 0.0, weight=5.0)
        tracker.record("b", 0.0, weight=1.0)
        tracker.record("c", 0.0, weight=3.0)
        suspects = tracker.suspects(0.0, threshold=2.0)
        assert [core for core, _ in suspects] == ["a", "c"]

    def test_unknown_core_scores_zero(self):
        assert SuspicionTracker().score("nope", 0.0) == 0.0

    def test_signal_count_does_not_decay(self):
        tracker = SuspicionTracker(half_life_days=1.0)
        tracker.record("a", 0.0)
        tracker.score("a", 100.0)
        assert tracker.signals("a") == 1

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            SuspicionTracker(half_life_days=0.0)
