"""Signal analysis and the suspicion weight table."""

import pytest

from repro.core.events import CeeEvent, EventKind, Reporter
from repro.detection.signals import DEFAULT_WEIGHTS, SignalAnalyzer
from repro.detection.weights import SUSPICION_WEIGHTS, default_weights


def _event(core, kind=EventKind.CRASH, t=0.0, machine="m0", app="app"):
    return CeeEvent(
        time_days=t, machine_id=machine, core_id=core, kind=kind,
        reporter=Reporter.AUTOMATED, application=app,
    )


class TestSignalAnalyzer:
    def test_attributed_event_raises_core_suspicion(self):
        analyzer = SignalAnalyzer()
        analyzer.ingest(_event("m0/c1", EventKind.MACHINE_CHECK))
        assert analyzer.tracker.score("m0/c1", 0.0) == \
            DEFAULT_WEIGHTS[EventKind.MACHINE_CHECK]

    def test_screen_fail_weighs_most_of_single_observations(self):
        # A breaker trip is an aggregate of several correlated failures,
        # so it may outweigh everything; among *single*-observation
        # signals, a confessed screening failure stays the strongest.
        singles = {
            kind: weight for kind, weight in DEFAULT_WEIGHTS.items()
            if kind is not EventKind.BREAKER_TRIP
        }
        assert DEFAULT_WEIGHTS[EventKind.SCREEN_FAIL] == max(singles.values())
        assert DEFAULT_WEIGHTS[EventKind.BREAKER_TRIP] == max(
            DEFAULT_WEIGHTS.values()
        )

    def test_unattributed_event_changes_no_score(self):
        analyzer = SignalAnalyzer()
        analyzer.ingest_all([_event(None, EventKind.CRASH, machine="m0")])
        assert analyzer.tracker.tracked_cores() == []
        with pytest.raises(ValueError, match="unattributed"):
            analyzer.ingest(_event(None, EventKind.CRASH, machine="m0"))
        assert analyzer.tracker.tracked_cores() == []

    def test_repeated_signals_become_suspects(self):
        analyzer = SignalAnalyzer()
        for t in range(3):
            analyzer.ingest(_event("m0/c7", EventKind.SELF_CHECK_FAILURE,
                                   t=float(t)))
        suspects = analyzer.suspects(now_days=3.0, threshold=2.0)
        assert suspects and suspects[0][0] == "m0/c7"

    def test_ingest_all(self):
        analyzer = SignalAnalyzer()
        analyzer.ingest_all([_event("m0/c0"), _event("m0/c0")])
        assert analyzer.tracker.signals("m0/c0") == 2

    @staticmethod
    def _batch():
        return [
            _event("m0/c0", EventKind.MACHINE_CHECK, t=1.0),
            _event(None, EventKind.CRASH, t=1.0, machine="m0"),
            _event(None, EventKind.CRASH, t=1.0, machine="ghost"),
            _event("m1/c2", EventKind.SELF_CHECK_FAILURE, t=2.0, machine="m1"),
            _event(None, EventKind.USER_REPORT, t=2.0, machine="m1"),
        ]

    def test_ingest_all_hands_ingest_only_attributed_events(
        self, monkeypatch
    ):
        """Nowhere to pin them: they never cost an ``ingest`` call."""
        seen = []
        real = SignalAnalyzer.ingest

        def counting(self, event):
            seen.append(event)
            return real(self, event)

        monkeypatch.setattr(SignalAnalyzer, "ingest", counting)
        analyzer = SignalAnalyzer()
        analyzer.ingest_all(self._batch())
        assert [event.core_id for event in seen] == ["m0/c0", "m1/c2"]

        one_by_one = SignalAnalyzer()
        for event in self._batch():
            if event.core_id is not None:
                real(one_by_one, event)
        assert analyzer.tracker.suspects(2.0, 0.0) == \
            one_by_one.tracker.suspects(2.0, 0.0)


class TestSuspicionWeightTable:
    def test_every_event_kind_has_an_explicit_weight(self):
        # The completeness invariant the weights module promises: a new
        # EventKind without a documented weight is a test failure, not a
        # silent 1.0 default somewhere in the analyzer.
        missing = [k for k in EventKind if k not in SUSPICION_WEIGHTS]
        assert missing == []
        extra = [k for k in SUSPICION_WEIGHTS if k not in set(EventKind)]
        assert extra == []

    def test_every_weight_is_positive_and_justified(self):
        for kind, entry in SUSPICION_WEIGHTS.items():
            assert entry.weight > 0, kind
            assert entry.rationale.strip(), kind

    def test_analyzer_defaults_come_from_the_table(self):
        assert DEFAULT_WEIGHTS == default_weights()
        assert DEFAULT_WEIGHTS == {
            kind: entry.weight for kind, entry in SUSPICION_WEIGHTS.items()
        }
