"""The event record and event log analytics."""

import copy

import pytest

from repro.core.events import CeeEvent, EventKind, EventLog, Reporter
from repro.engine.runner import run_tasks


def _event(t, machine="m0", core="m0/c0", kind=EventKind.CRASH,
           reporter=Reporter.AUTOMATED, app=None):
    return CeeEvent(
        time_days=t, machine_id=machine, core_id=core, kind=kind,
        reporter=reporter, application=app,
    )


class TestCeeEventRecord:
    """What every emitter and consumer relies on, whatever the record is
    built from: an immutable value with the seven named fields."""

    FIELDS = ("time_days", "machine_id", "core_id", "kind", "reporter",
              "application", "detail")

    def test_positional_and_keyword_construction_agree(self):
        positional = CeeEvent(
            1.5, "m0", "m0/c1", EventKind.CRASH, Reporter.HUMAN, "app", "why"
        )
        keyword = CeeEvent(
            detail="why", application="app", reporter=Reporter.HUMAN,
            kind=EventKind.CRASH, core_id="m0/c1", machine_id="m0",
            time_days=1.5,
        )
        assert positional == keyword
        assert [getattr(positional, name) for name in self.FIELDS] == [
            1.5, "m0", "m0/c1", EventKind.CRASH, Reporter.HUMAN, "app", "why"
        ]

    def test_defaults(self):
        event = CeeEvent(0.0, "m0", None, EventKind.CRASH, Reporter.AUTOMATED)
        assert event.application is None
        assert event.detail == ""
        with pytest.raises(TypeError):
            CeeEvent(0.0, "m0", None, EventKind.CRASH)

    def test_immutable(self):
        event = _event(1.0)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(event, name, "changed")
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_equal_and_hashed_by_value(self):
        assert _event(1.0) == _event(1.0)
        assert _event(1.0) != _event(1.0, core="m0/c9")
        assert len({_event(1.0), _event(1.0), _event(2.0)}) == 2

    def test_pickles_through_the_process_pool(self):
        events = [
            _event(1.0, app="app3"),
            _event(2.0, core=None, kind=EventKind.USER_REPORT,
                   reporter=Reporter.HUMAN),
        ]
        returned = run_tasks(copy.copy, events, workers=2)
        assert returned == events
        assert all(type(event) is CeeEvent for event in returned)
        # enum members survive as the same singletons, so the `is`
        # comparisons EventLog.filter makes still hold
        assert returned[1].kind is EventKind.USER_REPORT
        assert returned[1].reporter is Reporter.HUMAN


class TestEventLog:
    def test_append_and_len(self):
        log = EventLog()
        log.append(_event(1.0))
        log.extend([_event(2.0), _event(3.0)])
        assert len(log) == 3

    def test_filter_by_kind(self):
        log = EventLog()
        log.append(_event(1.0, kind=EventKind.CRASH))
        log.append(_event(2.0, kind=EventKind.MACHINE_CHECK))
        assert len(log.filter(kind=EventKind.CRASH)) == 1

    def test_filter_by_reporter(self):
        log = EventLog()
        log.append(_event(1.0, reporter=Reporter.HUMAN))
        log.append(_event(2.0, reporter=Reporter.AUTOMATED))
        assert len(log.filter(reporter=Reporter.HUMAN)) == 1

    def test_filter_time_window_half_open(self):
        log = EventLog()
        for t in (0.0, 5.0, 10.0):
            log.append(_event(t))
        assert len(log.filter(since=5.0, until=10.0)) == 1

    def test_filter_with_predicate(self):
        log = EventLog()
        log.append(_event(1.0, core="m0/c1"))
        log.append(_event(2.0, core="m0/c2"))
        selected = log.filter(predicate=lambda e: e.core_id == "m0/c2")
        assert len(selected) == 1

    def test_per_core_counts_skip_unattributed(self):
        log = EventLog()
        log.append(_event(1.0, core="m0/c1"))
        log.append(_event(2.0, core=None))
        counts = log.per_core_counts()
        assert counts == {"m0/c1": 1}

    def test_per_machine_counts(self):
        log = EventLog()
        log.append(_event(1.0, machine="m1"))
        log.append(_event(2.0, machine="m1"))
        log.append(_event(3.0, machine="m2"))
        assert log.per_machine_counts()["m1"] == 2

    def test_tail(self):
        log = EventLog()
        log.append(_event(1.0))
        log.append(_event(2.0))
        assert [e.time_days for e in log.tail(1)] == [2.0]


class TestRateTimeline:
    def test_buckets_and_normalization(self):
        log = EventLog()
        for t in (1.0, 2.0, 15.0):
            log.append(_event(t))
        series = log.rate_timeline(
            bucket_days=10.0, horizon_days=20.0, machines=10
        )
        assert len(series) == 2
        assert series[0][1] == 2 / (10.0 * 10)
        assert series[1][1] == 1 / (10.0 * 10)

    def test_kind_filter(self):
        log = EventLog()
        log.append(_event(1.0, kind=EventKind.CRASH))
        log.append(_event(1.0, kind=EventKind.USER_REPORT))
        series = log.rate_timeline(
            bucket_days=10.0, horizon_days=10.0,
            kinds={EventKind.USER_REPORT},
        )
        assert series[0][1] == 1 / 10.0

    def test_negative_time_events_excluded(self):
        """Warmup events fall outside the reported window."""
        log = EventLog()
        log.append(_event(-5.0))
        log.append(_event(5.0))
        series = log.rate_timeline(bucket_days=10.0, horizon_days=10.0)
        assert series[0][1] == 1 / 10.0
