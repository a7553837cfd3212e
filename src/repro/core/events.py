"""Event model: what the infrastructure can actually observe.

The paper's situation is black-box: "We have observations of the form
'this code has miscomputed (or crashed) on that core'" (§2).  Every
observable — a failed self-check, a crash, a machine check, a sanitizer
report, a screening-test failure, a user complaint — becomes a
:class:`CeeEvent` in an :class:`EventLog`.  Detection and policy layers
consume only these events, never ground truth.
"""

from __future__ import annotations

import collections
import enum
import math
from typing import Callable, Iterable, Iterator, NamedTuple


class EventKind(enum.Enum):
    """How the observable surfaced (§6 lists these signal sources)."""

    SELF_CHECK_FAILURE = "self_check_failure"     # app-level check tripped
    CRASH = "crash"                               # process/kernel crash
    MACHINE_CHECK = "machine_check"               # logged MCE
    SANITIZER = "sanitizer"                       # tool-chain sanitizer hit
    SCREEN_FAIL = "screen_fail"                   # screening test failed
    USER_REPORT = "user_report"                   # human-filed suspicion
    APP_REPORT = "app_report"                     # CoreComplaintService RPC
    DATA_CORRUPTION = "data_corruption"           # found corrupt at rest
    BREAKER_TRIP = "breaker_trip"                 # serving circuit breaker
    WAL_CORRUPTION = "wal_corruption"             # bad CRC at WAL replay
    SCRUB_MISMATCH = "scrub_mismatch"             # background scrub divergence
    QUORUM_MISMATCH = "quorum_mismatch"           # voted read disagreement
    ENCRYPT_VERIFY_FAIL = "encrypt_verify_fail"   # decrypt-elsewhere check
    HEDGE_FIRED = "hedge_fired"                   # tail-latency hedge issued
    RETRY_BUDGET_EXHAUSTED = "retry_budget_exhausted"  # retry tokens drained
    SHARD_DEGRADED = "shard_degraded"             # shard entered a degraded tier
    AUTOSCALE_ACTION = "autoscale_action"         # replica added or drained
    INSTRCHECK_MISMATCH = "instrcheck_mismatch"   # duplicate-execution digest split
    CHECKER_LAG_OVERFLOW = "checker_lag_overflow"  # MEEK check queue dropped entries
    REPLAY_DIVERGENCE = "replay_divergence"       # replayed granule disagreed
    FLEETSCREEN_FAIL = "fleetscreen_fail"         # distilled fleet battery confessed
    RIDEALONG_SKIPPED = "ridealong_skipped"       # ride-along budget exhausted


class Reporter(enum.Enum):
    """Who noticed (drives Fig. 1's two series)."""

    AUTOMATED = "automated"
    HUMAN = "human"


class CeeEvent(NamedTuple):
    """One observation that *might* indicate a mercurial core.

    An immutable value record (hashable, equal by value, picklable).
    The fleet simulator builds ~10^5 of these per trial, so the type is
    a ``NamedTuple``: construction is one C-level tuple allocation
    instead of a frozen dataclass's per-field ``object.__setattr__``.

    Attributes:
        time_days: fleet time of the observation.
        machine_id: machine the signal came from.
        core_id: core attribution if available (crashes often lack it).
        kind: signal source.
        reporter: automated infrastructure or a human.
        application: workload that produced the signal, if any.
        detail: free-form context (defect op, test name, ...).
    """

    time_days: float
    machine_id: str
    core_id: str | None
    kind: EventKind
    reporter: Reporter
    application: str | None = None
    detail: str = ""


class EventLog:
    """Append-only log of :class:`CeeEvent` with simple analytics."""

    def __init__(self) -> None:
        self._events: list[CeeEvent] = []

    def append(self, event: CeeEvent) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[CeeEvent]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[CeeEvent]:
        return iter(self._events)

    def filter(
        self,
        predicate: Callable[[CeeEvent], bool] | None = None,
        kind: EventKind | None = None,
        reporter: Reporter | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[CeeEvent]:
        """Select events; all criteria are ANDed."""
        selected = []
        for event in self._events:
            if kind is not None and event.kind is not kind:
                continue
            if reporter is not None and event.reporter is not reporter:
                continue
            if since is not None and event.time_days < since:
                continue
            if until is not None and event.time_days >= until:
                continue
            if predicate is not None and not predicate(event):
                continue
            selected.append(event)
        return selected

    def per_core_counts(
        self, kind: EventKind | None = None
    ) -> collections.Counter:
        """Events per attributed core (unattributed events are skipped)."""
        counts: collections.Counter = collections.Counter()
        for event in self._events:
            if kind is not None and event.kind is not kind:
                continue
            if event.core_id is not None:
                counts[event.core_id] += 1
        return counts

    def per_machine_counts(
        self, kind: EventKind | None = None
    ) -> collections.Counter:
        counts: collections.Counter = collections.Counter()
        for event in self._events:
            if kind is not None and event.kind is not kind:
                continue
            counts[event.machine_id] += 1
        return counts

    def tail(self, start: int) -> list[CeeEvent]:
        """Events appended at or after index ``start`` (cheap slice)."""
        return self._events[start:]

    def rate_timeline(
        self,
        bucket_days: float,
        horizon_days: float,
        reporter: Reporter | None = None,
        machines: int = 1,
        kinds: set[EventKind] | None = None,
    ) -> list[tuple[float, float]]:
        """(bucket start, events per machine per day) series — Fig. 1's shape."""
        if bucket_days <= 0:
            raise ValueError("bucket_days must be positive")
        n_buckets = max(1, int(horizon_days / bucket_days))
        counts = [0] * n_buckets
        for event in self._events:
            if reporter is not None and event.reporter is not reporter:
                continue
            if kinds is not None and event.kind not in kinds:
                continue
            # floor, not int(): warmup events at negative times must land
            # in negative buckets, not be truncated into bucket 0
            bucket = math.floor(event.time_days / bucket_days)
            if 0 <= bucket < n_buckets:
                counts[bucket] += 1
        return [
            (i * bucket_days, counts[i] / (bucket_days * max(machines, 1)))
            for i in range(n_buckets)
        ]
