"""The hardening toolkit around the serving layer.

Each mechanism is one §7-style defence, composable via
:class:`HardeningConfig`:

- :class:`ResponseValidator` — the end-to-end argument applied to RPC:
  the *client* computes a checksum on its own (trusted) core before the
  request crosses a possibly-mercurial server core, and re-verifies the
  response against it — the same mechanism as the CRC-framed records
  of :mod:`repro.storage`, reusing the same
  :func:`~repro.workloads.hashing.crc64` primitive.
- :class:`RetryPolicy` — exponential backoff with full jitter, with a
  *core-diversity* rule: a retry is never sent to a core that already
  served (and failed) this request, because a mercurial core fails
  "repeatedly and intermittently" (§2) — retrying in place converts an
  intermittent corruption into a repeated one.
- :class:`HedgePolicy` — tail-latency hedging: when the primary attempt
  is predicted slow, a duplicate is issued to a *different* core and the
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

from repro.core.events import CeeEvent, EventKind, EventLog, Reporter
from repro.workloads.base import CoreLike
from repro.workloads.hashing import crc64


# ---------------------------------------------------------------------
# end-to-end response validation
# ---------------------------------------------------------------------

class ResponseValidator:
    """Client-side e2e checksum over the request/response payload."""

    def __init__(self, client_core: CoreLike):
        self.client_core = client_core
        self.checks = 0
        self.mismatches = 0

    def checksum(self, payload: bytes) -> int:
        """Pre-send checksum, computed on the client's own core."""
        return crc64(self.client_core, payload)

    def validate(self, expected_checksum: int, response_payload: bytes) -> bool:
        """Re-verify a response against the pre-send checksum."""
        self.checks += 1
        ok = crc64(self.client_core, response_payload) == expected_checksum
        if not ok:
            self.mismatches += 1
        return ok


# ---------------------------------------------------------------------
# retries with backoff + jitter + core diversity
# ---------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter (AWS-style).

    Attributes:
        max_attempts: total tries including the first.
        base_backoff_ms: delay scale for the first retry.
        multiplier: exponential growth per retry.
        max_backoff_ms: backoff cap.
        jitter: fraction of the delay randomized away (1.0 = full
            jitter in ``[delay/2, delay]``... we use ``delay * (1 - j*u)``).
        core_diversity: never retry on an already-tried core.
    """

    max_attempts: int = 3
    base_backoff_ms: float = 2.0
    multiplier: float = 2.0
    max_backoff_ms: float = 40.0
    jitter: float = 0.5
    core_diversity: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_ms(self, retry_index: int, rng: np.random.Generator) -> float:
        """Delay before retry ``retry_index`` (0 = first retry)."""
        delay = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.multiplier ** retry_index,
        )
        return delay * (1.0 - self.jitter * float(rng.random()))


@dataclasses.dataclass(frozen=True)
class HedgePolicy:
    """Send a duplicate to another core when the primary looks slow."""

    hedge_delay_ms: float = 6.0


# ---------------------------------------------------------------------
# per-core circuit breakers
# ---------------------------------------------------------------------

class BreakerState(enum.Enum):
    """Per-core circuit breaker: closed (healthy) -> open -> half-open."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Trip after ``failure_threshold`` failures inside ``window_ms``;
    stay open for ``cooldown_ms``, then allow probes (half-open)."""

    failure_threshold: int = 3
    window_ms: float = 400.0
    cooldown_ms: float = 200.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")


class CircuitBreaker:
    """Failure accounting for one server core."""

    def __init__(self, core_id: str, config: BreakerConfig):
        self.core_id = core_id
        self.config = config
        self.state = BreakerState.CLOSED
        self.trips = 0
        self._failure_times: list[float] = []
        self._opened_at = 0.0

    def allows(self, now_ms: float) -> bool:
        """May a request be routed to this core right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now_ms - self._opened_at >= self.config.cooldown_ms:
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
        window_start = now_ms - self.config.window_ms
        self._failure_times = [
            t for t in self._failure_times if t >= window_start
        ]
        self._failure_times.append(now_ms)
        if (
            self.state is BreakerState.CLOSED
            and len(self._failure_times) >= self.config.failure_threshold
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

    def __init__(
        self,
        config: BreakerConfig,
        event_log: EventLog | None = None,
        machine_of: dict[str, str] | None = None,
        ms_per_day: float = 86_400_000.0,
    ):
        self.config = config
        self.event_log = event_log
        self.machine_of = machine_of or {}
        self.ms_per_day = ms_per_day
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, core_id: str) -> CircuitBreaker:
        if core_id not in self._breakers:
            self._breakers[core_id] = CircuitBreaker(core_id, self.config)
        return self._breakers[core_id]

    def allows(self, core_id: str, now_ms: float) -> bool:
        return self.breaker(core_id).allows(now_ms)

    def open_core_ids(self, now_ms: float) -> set[str]:
        return {
            core_id
            for core_id, breaker in self._breakers.items()
            if not breaker.allows(now_ms)
        }

    def record_success(self, core_id: str, now_ms: float) -> None:
        self.breaker(core_id).record_success(now_ms)

    def record_failure(
        self, core_id: str, now_ms: float, detail: str = ""
    ) -> bool:
        """Count a failure; on a trip, log the event.  Returns tripped."""
        tripped = self.breaker(core_id).record_failure(now_ms)
        if tripped and self.event_log is not None:
            self.event_log.append(
                CeeEvent(
                    time_days=now_ms / self.ms_per_day,
                    machine_id=self.machine_of.get(
                        core_id, core_id.rsplit("/", 1)[0]
                    ),
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

@dataclasses.dataclass(frozen=True)
class LoadShedConfig:
    """Admission control: refuse work beyond ``max_queue_factor`` ×
    per-tick service capacity so the served remainder stays in SLO."""

    max_queue_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.max_queue_factor <= 0:
            raise ValueError("max_queue_factor must be positive")


class LoadShedder:
    """Queue-depth admission control (newest arrivals shed first)."""

    def __init__(self, config: LoadShedConfig):
        self.config = config
        self.shed_count = 0

    def admit(self, queue_len: int, arrivals: int, capacity: int) -> int:
        """How many of ``arrivals`` to admit given the current backlog."""
        limit = max(capacity, int(self.config.max_queue_factor * capacity))
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
    retry: RetryPolicy | None = dataclasses.field(default_factory=RetryPolicy)
    hedge: HedgePolicy | None = dataclasses.field(default_factory=HedgePolicy)
    breaker: BreakerConfig | None = dataclasses.field(
        default_factory=BreakerConfig
    )
    shed: LoadShedConfig | None = dataclasses.field(
        default_factory=LoadShedConfig
    )

    @classmethod
    def unhardened(cls) -> "HardeningConfig":
        """The naive service: trust every response, never reroute."""
        return cls(
            name="unhardened", validate=False, retry=None, hedge=None,
            breaker=None, shed=None,
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
        return cls(name="validator-only", breaker=None)


__all__ = [
    "BreakerBoard",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "HardeningConfig",
    "HedgePolicy",
    "LoadShedConfig",
    "LoadShedder",
    "ResponseValidator",
    "RetryPolicy",
]
