"""The hardening toolkit around the serving layer.

Each mechanism is one §7-style defence, composable via
:class:`HardeningConfig`:

- :class:`ResponseValidator` — the end-to-end argument applied to RPC:
  the *client* computes a checksum on its own (trusted) core before the
  request crosses a possibly-mercurial server core, and re-verifies the
  response against it — the same mechanism as the CRC-framed records
  of :mod:`repro.storage`, reusing the same
  :func:`~repro.workloads.hashing.crc64` primitive.  Where the client
  core credits the CRC's ops, the client keeps the sent bytes and
  computes CRCs only for a response that differs from them.
- retries — exponential backoff with jitter (:func:`backoff_ms`), with a
  *core-diversity* rule: a retry is never sent to a core that already
  served (and failed) this request, because a mercurial core fails
  "repeatedly and intermittently" (§2) — retrying in place converts an
  intermittent corruption into a repeated one.
- tail-latency hedging: when the primary attempt is slower than
  :data:`HEDGE_DELAY_MS`, a duplicate is issued to a *different* core and the
  first valid response wins (which also happens to be a cheap dual
  execution for the hedged fraction of traffic).
- :class:`CircuitBreaker` / :class:`BreakerBoard` — per-core failure
  accounting with CLOSED → OPEN → HALF_OPEN states.  A trip is hard
  recidivism evidence, so the board emits a
  :class:`~repro.core.events.CeeEvent` of kind ``BREAKER_TRIP`` — the
  hook through which serving-layer symptoms reach the
  :class:`~repro.core.confidence.SuspicionTracker` and the quarantine
  policy (closing §6's loop from application signal to core isolation).
- :class:`LoadShedder` — graceful degradation: under capacity loss or
  burst traffic, excess admissions are refused outright so that the
  requests that *are* served still meet their deadlines.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.core.events import (
    CeeEvent,
    EventKind,
    EventLog,
    Reporter,
    machine_of,
)
from repro.obs.forensics import MS_PER_DAY
from repro.workloads.base import CoreLike
from repro.workloads.hashing import crc64, crc64_credit, golden_crc64


# ---------------------------------------------------------------------
# end-to-end response validation
# ---------------------------------------------------------------------

def _crc_of(expected: int | bytes) -> int:
    """The CRC a :meth:`ResponseValidator.checksum` result stands for."""
    return golden_crc64(expected) if isinstance(expected, bytes) else expected


class ResponseValidator:
    """Client-side e2e checksum over the request/response payload.

    Both calls charge the client core ``crc64``'s ops.  Where the core
    credits them (:func:`~repro.workloads.hashing.crc64_credit`: no
    defect can act on them) the CRC is the golden one, so the bytes
    decide: a response equal to the sent payload passes without a CRC,
    and only a differing one compares the two golden CRCs, which keeps
    the verdict on a collision exact.  Otherwise every op runs on the
    core, as ``crc64`` does.  Verdicts, counters and the core's op
    count and rng state equal the per-op path's.
    """

    def __init__(self, client_core: CoreLike):
        self.client_core = client_core
        self.checks = 0
        self.mismatches = 0

    def checksum(self, payload: bytes) -> int | bytes:
        """Pre-send checksum, computed on the client's own core: the
        CRC, or the payload itself where the CRC is credited."""
        if crc64_credit(self.client_core, payload):
            return payload
        return crc64(self.client_core, payload)

    def validate(
        self, expected_checksum: int | bytes, response_payload: bytes
    ) -> bool:
        """Re-verify a response against the pre-send checksum."""
        self.checks += 1
        if crc64_credit(self.client_core, response_payload):
            ok = response_payload == expected_checksum or (
                golden_crc64(response_payload) == _crc_of(expected_checksum)
            )
        else:
            ok = crc64(self.client_core, response_payload) == _crc_of(
                expected_checksum
            )
        if not ok:
            self.mismatches += 1
        return ok


# ---------------------------------------------------------------------
# retries with backoff + jitter + core diversity
# ---------------------------------------------------------------------

#: total tries including the first
RETRY_MAX_ATTEMPTS = 3
#: delay scale for the first retry
RETRY_BASE_BACKOFF_MS = 2.0
#: exponential growth per retry
RETRY_MULTIPLIER = 2.0
#: backoff cap
RETRY_MAX_BACKOFF_MS = 40.0
#: fraction of the delay randomized away: ``delay * (1 - jitter * u)``
RETRY_JITTER = 0.5


def backoff_ms(retry_index: int, rng: np.random.Generator) -> float:
    """Exponential backoff with jitter (AWS-style) before retry
    ``retry_index`` (0 = first retry)."""
    delay = min(
        RETRY_MAX_BACKOFF_MS,
        RETRY_BASE_BACKOFF_MS * RETRY_MULTIPLIER ** retry_index,
    )
    return delay * (1.0 - RETRY_JITTER * float(rng.random()))


#: a duplicate goes to another core when the primary takes longer
HEDGE_DELAY_MS = 6.0


# ---------------------------------------------------------------------
# per-core circuit breakers
# ---------------------------------------------------------------------

class BreakerState(enum.Enum):
    """Per-core circuit breaker: closed (healthy) -> open -> half-open."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: a breaker trips after this many failures inside the window...
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_WINDOW_MS = 400.0
#: ...and stays open this long before allowing probes (half-open)
BREAKER_COOLDOWN_MS = 200.0


class CircuitBreaker:
    """Failure accounting for one server core."""

    def __init__(self, core_id: str):
        self.core_id = core_id
        self.state = BreakerState.CLOSED
        self.trips = 0
        self._failure_times: list[float] = []
        self._opened_at = 0.0

    def allows(self, now_ms: float) -> bool:
        """May a request be routed to this core right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now_ms - self._opened_at >= BREAKER_COOLDOWN_MS:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: probe traffic allowed

    def record_success(self, now_ms: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self._failure_times.clear()

    def record_failure(self, now_ms: float) -> bool:
        """Count one failure; returns True when this failure trips."""
        if self.state is BreakerState.HALF_OPEN:
            # A failed probe re-opens immediately.
            self.state = BreakerState.OPEN
            self._opened_at = now_ms
            self.trips += 1
            return True
        window_start = now_ms - BREAKER_WINDOW_MS
        self._failure_times = [
            t for t in self._failure_times if t >= window_start
        ]
        self._failure_times.append(now_ms)
        if (
            self.state is BreakerState.CLOSED
            and len(self._failure_times) >= BREAKER_FAILURE_THRESHOLD
        ):
            self.state = BreakerState.OPEN
            self._opened_at = now_ms
            self.trips += 1
            return True
        return False


class BreakerBoard:
    """All per-core breakers of one service, plus the event plumbing.

    A trip emits a ``BREAKER_TRIP`` event into the shared
    :class:`~repro.core.events.EventLog`; the campaign's
    :class:`~repro.detection.signals.SignalAnalyzer` ingests it with a
    heavy weight (a trip already *is* several correlated failures), so
    trips accelerate the suspicion → quarantine loop.
    """

    def __init__(self, event_log: EventLog | None = None):
        self.event_log = event_log
        self._breakers: dict[str, CircuitBreaker] = {}
        # the breakers that tripped and have not closed since: only a
        # board-recorded failure opens one, only a success closes one
        self._unclosed: dict[str, CircuitBreaker] = {}

    def breaker(self, core_id: str) -> CircuitBreaker:
        """The breaker of ``core_id``; change its state only through the
        board, which tracks the ones not closed."""
        if core_id not in self._breakers:
            self._breakers[core_id] = CircuitBreaker(core_id)
        return self._breakers[core_id]

    def allows(self, core_id: str, now_ms: float) -> bool:
        return self.breaker(core_id).allows(now_ms)

    def open_core_ids(self, now_ms: float) -> set[str]:
        """Cores whose breaker refuses traffic now.  Asking moves a
        cooled-down OPEN breaker to HALF_OPEN, as :meth:`allows` does; a
        CLOSED breaker allows without a side effect, so it is not asked."""
        if not self._unclosed:
            return set()
        return {
            core_id
            for core_id, breaker in self._unclosed.items()
            if not breaker.allows(now_ms)
        }

    def record_success(self, core_id: str, now_ms: float) -> None:
        breaker = self.breaker(core_id)
        breaker.record_success(now_ms)
        if breaker.state is BreakerState.CLOSED:
            self._unclosed.pop(core_id, None)

    def record_failure(
        self, core_id: str, now_ms: float, detail: str = ""
    ) -> bool:
        """Count a failure; on a trip, log the event.  Returns tripped."""
        breaker = self.breaker(core_id)
        tripped = breaker.record_failure(now_ms)
        if tripped:
            self._unclosed[core_id] = breaker
        if tripped and self.event_log is not None:
            self.event_log.append(
                CeeEvent(
                    time_days=now_ms / MS_PER_DAY,
                    machine_id=machine_of(core_id),
                    core_id=core_id,
                    kind=EventKind.BREAKER_TRIP,
                    reporter=Reporter.AUTOMATED,
                    application="serving",
                    detail=detail or "circuit breaker tripped",
                )
            )
        return tripped

    @property
    def total_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())


# ---------------------------------------------------------------------
# load shedding
# ---------------------------------------------------------------------

#: admission control refuses work beyond this many ticks of service
#: capacity, so the served remainder stays in SLO
MAX_QUEUE_FACTOR = 3.0


class LoadShedder:
    """Queue-depth admission control (newest arrivals shed first)."""

    def __init__(self):
        self.shed_count = 0

    def admit(self, queue_len: int, arrivals: int, capacity: int) -> int:
        """How many of ``arrivals`` to admit given the current backlog."""
        limit = int(MAX_QUEUE_FACTOR * capacity)
        room = max(0, limit - queue_len)
        admitted = min(arrivals, room)
        self.shed_count += arrivals - admitted
        return admitted


# ---------------------------------------------------------------------
# the composite hardening configuration
# ---------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class HardeningConfig:
    """Which defences the service runs; the experiment's main knob."""

    name: str = "hardened"
    validate: bool = True
    retry: bool = True
    hedge: bool = True
    breaker: bool = True
    shed: bool = True

    @classmethod
    def unhardened(cls) -> "HardeningConfig":
        """The naive service: trust every response, never reroute."""
        return cls(
            name="unhardened", validate=False, retry=False, hedge=False,
            breaker=False, shed=False,
        )

    @classmethod
    def hardened(cls) -> "HardeningConfig":
        """Everything on (the defaults)."""
        return cls()

    @classmethod
    def validator_only(cls) -> "HardeningConfig":
        """Validation + retries but no circuit breakers.

        The ablation used to show that breaker trips *accelerate*
        quarantine beyond what per-response validation signals achieve.
        """
        return cls(name="validator-only", breaker=False)


__all__ = [
    "BreakerBoard",
    "BreakerState",
    "CircuitBreaker",
    "HardeningConfig",
    "LoadShedder",
    "ResponseValidator",
    "backoff_ms",
]
