"""The event record and event log analytics."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import (
    CeeEvent,
    EventKind,
    EventLog,
    Reporter,
    format_core_id,
    machine_of,
)
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
        # comparisons EventLog.rate_timeline makes still hold
        assert returned[1].kind is EventKind.USER_REPORT
        assert returned[1].reporter is Reporter.HUMAN


class TestCoreIdFormat:
    """One format names every core; ``machine_of`` reads the machine back."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.integers(min_value=0, max_value=10_000))
    def test_machine_of_inverts_the_format(self, machine_id, index):
        assert machine_of(format_core_id(machine_id, index)) == machine_id

    def test_two_digit_core_index(self):
        assert format_core_id("m00017", 5) == "m00017/c05"
        assert format_core_id("m00017", 123) == "m00017/c123"


class TestEventLog:
    def test_append_and_len(self):
        log = EventLog()
        log.append(_event(1.0))
        log.extend([_event(2.0), _event(3.0)])
        assert len(log) == 3

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

    @pytest.mark.parametrize("bucket_days, horizon_days, name", [
        (math.inf, 10.0, "bucket_days"),
        (math.nan, 10.0, "bucket_days"),
        (10.0, math.nan, "horizon_days"),
        (10.0, math.inf, "horizon_days"),
        (10.0, -5.0, "horizon_days"),
    ])
    def test_rejects_inputs_it_cannot_answer(
        self, bucket_days, horizon_days, name
    ):
        log = EventLog()
        log.append(_event(5.0))
        with pytest.raises(ValueError, match=name):
            log.rate_timeline(bucket_days=bucket_days, horizon_days=horizon_days)


MACHINE_IDS = [f"m{i}" for i in range(4)]
KINDS = (EventKind.CRASH, EventKind.USER_REPORT, EventKind.SCREEN_FAIL)

_records = st.builds(
    CeeEvent,
    time_days=st.integers(-40, 80).map(lambda q: q / 4),
    machine_id=st.sampled_from(MACHINE_IDS),
    core_id=st.sampled_from([None, "m0/c0", "m3/c1"]),
    kind=st.sampled_from(KINDS),
    reporter=st.sampled_from(list(Reporter)),
)
_batches = st.tuples(
    st.integers(-40, 80).map(lambda q: q / 4),
    st.sampled_from(KINDS),
    st.sampled_from(list(Reporter)),
    st.sampled_from(["software bug", ""]),
    st.lists(st.integers(0, len(MACHINE_IDS) - 1), max_size=6),
)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _records),
        st.tuples(st.just("extend"), st.lists(_records, max_size=4)),
        st.tuples(st.just("batch"), _batches),
    ),
    max_size=12,
)


def _replay(operations):
    """The log under test, and the plain list of records it stands for."""
    log, reference = EventLog(), []
    for op, payload in operations:
        if op == "append":
            log.append(payload)
            reference.append(payload)
        elif op == "extend":
            log.extend(payload)
            reference.extend(payload)
        else:
            time_days, kind, reporter, detail, machines = payload
            log.append_batch(
                time_days, kind, reporter, detail,
                np.array(machines, dtype=np.int64), MACHINE_IDS,
            )
            reference.extend(
                CeeEvent(time_days, MACHINE_IDS[m], None, kind, reporter,
                         None, detail)
                for m in machines
            )
    return log, reference


class TestEventLogDifferential:
    """A log holding batches answers exactly as the plain list of the
    records it was handed, in append order."""

    @settings(max_examples=150, deadline=None)
    @given(operations=_operations)
    def test_iteration_len_and_every_tail(self, operations):
        log, reference = _replay(operations)
        assert list(log) == reference
        assert len(log) == len(reference)
        for k in range(-len(reference) - 1, len(reference) + 2):
            assert log.tail(k) == reference[k:]

    @settings(max_examples=150, deadline=None)
    @given(
        operations=_operations,
        bucket_days=st.sampled_from([0.25, 1.0, 3.0, 7.5, 30.0]),
        horizon_days=st.integers(0, 100).map(lambda q: q / 4),
        reporter=st.sampled_from([None, *Reporter]),
        kinds=st.sampled_from([None, {EventKind.CRASH},
                               {EventKind.USER_REPORT, EventKind.SCREEN_FAIL}]),
        machines=st.integers(0, 5),
    )
    def test_rate_timeline_counts_every_record(
        self, operations, bucket_days, horizon_days, reporter, kinds, machines
    ):
        log, reference = _replay(operations)
        n_buckets = max(1, int(horizon_days / bucket_days))
        counts = [0] * n_buckets
        for event in reference:
            if reporter is not None and event.reporter is not reporter:
                continue
            if kinds is not None and event.kind not in kinds:
                continue
            bucket = math.floor(event.time_days / bucket_days)
            if 0 <= bucket < n_buckets:
                counts[bucket] += 1
        per = bucket_days * max(machines, 1)
        assert log.rate_timeline(
            bucket_days, horizon_days, reporter=reporter,
            machines=machines, kinds=kinds,
        ) == [(i * bucket_days, counts[i] / per) for i in range(n_buckets)]
