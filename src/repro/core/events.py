"""Event model: what the infrastructure can actually observe.

The paper's situation is black-box: "We have observations of the form
'this code has miscomputed (or crashed) on that core'" (§2).  Every
observable — a failed self-check, a crash, a machine check, a sanitizer
report, a screening-test failure, a user complaint — becomes a
:class:`CeeEvent` in an :class:`EventLog`.  Detection and policy layers
consume only these events, never ground truth.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


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


def format_core_id(machine_id: str, index: int) -> str:
    """The id of core ``index`` of ``machine_id``, e.g. ``"m00017/c05"``;
    every fleet names its cores this way, so :func:`machine_of` inverts it."""
    return f"{machine_id}/c{index:02d}"


def machine_of(core_id: str) -> str:
    """The machine that holds ``core_id``: all before its last ``/``."""
    return core_id.rsplit("/", 1)[0]


class _Batch(NamedTuple):
    """Records that share everything but the machine, kept as a count.

    One tick's background crashes: unattributed, so no detector reads
    them one by one, and built as :class:`CeeEvent` values only when
    someone iterates the log.
    """

    time_days: float
    kind: EventKind
    reporter: Reporter
    detail: str
    #: one machine index per record, into ``machine_ids``
    machine_index: np.ndarray
    machine_ids: Sequence[str]

    def records(self) -> list[CeeEvent]:
        time_days, kind, reporter, detail = (
            self.time_days, self.kind, self.reporter, self.detail
        )
        machine_ids = self.machine_ids
        return [
            CeeEvent(time_days, machine_ids[i], None, kind, reporter,
                     None, detail)
            for i in self.machine_index.tolist()
        ]


class EventLog:
    """Append-only log of :class:`CeeEvent`.

    Besides single records, the log holds *batches*
    (:meth:`append_batch`): many unattributed records that differ only
    in their machine.  A batch keeps its place in append order, counts
    in :meth:`__len__` and :meth:`rate_timeline` as its records would,
    and is built into records only by :meth:`__iter__` and
    :meth:`tail`.
    """

    def __init__(self) -> None:
        self._events: list[CeeEvent] = []
        #: (index into ``_events`` the batch sits before, batch)
        self._batches: list[tuple[int, _Batch]] = []
        self._batched = 0

    def append(self, event: CeeEvent) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[CeeEvent]) -> None:
        self._events.extend(events)

    def append_batch(
        self,
        time_days: float,
        kind: EventKind,
        reporter: Reporter,
        detail: str,
        machine_index: np.ndarray,
        machine_ids: Sequence[str],
    ) -> None:
        """Append one unattributed record per entry of ``machine_index``
        (each naming ``machine_ids[i]``), stored as one entry."""
        self._batches.append((
            len(self._events),
            _Batch(time_days, kind, reporter, detail, machine_index,
                   machine_ids),
        ))
        self._batched += len(machine_index)

    def __len__(self) -> int:
        return len(self._events) + self._batched

    def __iter__(self) -> Iterator[CeeEvent]:
        return iter(self._records())

    def _records(self) -> list[CeeEvent]:
        """Every record in append order, batches built in place."""
        if not self._batches:
            return self._events
        records: list[CeeEvent] = []
        start = 0
        for position, batch in self._batches:
            records.extend(self._events[start:position])
            records.extend(batch.records())
            start = position
        records.extend(self._events[start:])
        return records

    def tail(self, start: int) -> list[CeeEvent]:
        """Records appended at or after index ``start``: a slice when
        no batch lies in that range."""
        batches_end = self._batches[-1][0] + self._batched if self._batches else 0
        if start >= batches_end:
            return self._events[start - self._batched:]
        return self._records()[start:]

    def rate_timeline(
        self,
        bucket_days: float,
        horizon_days: float,
        reporter: Reporter | None = None,
        machines: int = 1,
        kinds: set[EventKind] | None = None,
    ) -> list[tuple[float, float]]:
        """(bucket start, events per machine per day) series — Fig. 1's shape."""
        for name, value in (("bucket_days", bucket_days),
                            ("horizon_days", horizon_days)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if bucket_days <= 0:
            raise ValueError(f"bucket_days must be positive, got {bucket_days}")
        if horizon_days < 0:
            raise ValueError(f"horizon_days must be >= 0, got {horizon_days}")
        n_buckets = max(1, int(horizon_days / bucket_days))
        counts = [0] * n_buckets
        # (time, kind, reporter, how many records): a batch is one row
        rows: Iterable[tuple[float, EventKind, Reporter, int]] = itertools.chain(
            ((e.time_days, e.kind, e.reporter, 1) for e in self._events),
            ((b.time_days, b.kind, b.reporter, len(b.machine_index))
             for _, b in self._batches),
        )
        for time_days, kind, event_reporter, n in rows:
            if reporter is not None and event_reporter is not reporter:
                continue
            if kinds is not None and kind not in kinds:
                continue
            # floor, not int(): warmup events at negative times must land
            # in negative buckets, not be truncated into bucket 0
            bucket = math.floor(time_days / bucket_days)
            if 0 <= bucket < n_buckets:
                counts[bucket] += n
        return [
            (i * bucket_days, counts[i] / (bucket_days * max(machines, 1)))
            for i in range(n_buckets)
        ]
