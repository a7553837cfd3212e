"""Suspicion tracking."""

import math

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

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"half_life_days": math.nan}, "half_life_days"),
            ({"half_life_days": math.inf}, "half_life_days"),
            ({"half_life_days": -1.0}, "half_life_days"),
            ({"source_bonus": math.nan}, "source_bonus"),
            ({"source_bonus": math.inf}, "source_bonus"),
            ({"source_bonus": -0.5}, "source_bonus"),
        ],
    )
    def test_invalid_parameters_name_their_field(self, kwargs, field):
        # A NaN half-life made every score NaN, so suspects() returned
        # [] forever: a detector that silently never flags.
        with pytest.raises(ValueError, match=field):
            SuspicionTracker(**kwargs)

    def test_zero_source_bonus_is_legal(self):
        tracker = SuspicionTracker(source_bonus=0.0)
        tracker.record("a", 0.0, source="app-a")
        tracker.record("a", 0.0, source="app-b")
        assert tracker.score("a", 0.0) == pytest.approx(2.0)

    def test_forget_drops_one_core_and_keeps_the_rest(self):
        tracker = SuspicionTracker()
        for core_id, weight in (("a", 5.0), ("b", 1.0), ("c", 3.0), ("d", 3.0)):
            tracker.record(core_id, 0.0, weight=weight)
        tracker.forget("c")
        tracker.forget("never-seen")
        assert tracker.tracked_cores() == ["a", "b", "d"]
        assert tracker.score("c", 0.0) == 0.0
        assert tracker.signals("c") == 0
        assert tracker.suspects(10.0, threshold=1.0) == [
            ("a", pytest.approx(5.0 * 0.5 ** (10.0 / 30.0))),
            ("d", pytest.approx(3.0 * 0.5 ** (10.0 / 30.0))),
        ]
        # a forgotten core that signals again starts from nothing
        assert tracker.record("c", 10.0) == 1.0

    def test_suspects_decays_exactly_as_score(self):
        """The pass shares one decay factor among the cores last touched
        on the same day; every score must still be ``score()``'s, bit
        for bit."""
        ranked, scored = SuspicionTracker(), SuspicionTracker()
        for tracker in (ranked, scored):
            for index in range(12):
                tracker.record(f"m{index}/c0", float(index % 3) + 0.1,
                               weight=1.0 + index / 7.0)
        suspects = ranked.suspects(9.7, threshold=0.0)
        assert len(suspects) == 12
        assert dict(suspects) == {
            core_id: scored.score(core_id, 9.7)
            for core_id in scored.tracked_cores()
        }
