"""Deterministic open-loop load generation for serve-at-scale campaigns.

The Facebook SDC-at-scale follow-up frames silent corruption as a
*user-visible* problem: what matters is how many of the requests real
users issue come back wrong, not per-core CEE counts.  Measuring that
needs a traffic model that behaves like users do — **open loop**:
arrivals are a function of simulated time alone, never of how fast the
service is draining its queues.  A slow or degraded cluster therefore
builds backlog and blows deadlines exactly the way a real one would,
instead of quietly self-throttling the load (the classic closed-loop
benchmarking mistake).

Three pieces compose:

- :class:`LoadPhase` / :class:`LoadProfile` — a piecewise-linear
  arrival-rate script (ramps, plateaus, spikes) evaluated per tick;
- :class:`UserCohort` — a slice of the user population with its own
  payload size, deadline, and user-id space (interactive vs batch vs
  bulk traffic ages very differently under degradation);
- :class:`LoadGenerator` — draws each tick's Poisson arrival count at
  the profile rate, samples a cohort and a stable per-user ``route_key``
  for every request, and stamps payloads from its own seeded RNG.

Determinism contract: the generator owns a private
``numpy.random.Generator`` seeded at construction, and ``arrivals`` is
a pure function of ``(seed, tick sequence)`` — two generators built
with the same arguments produce byte-identical request streams, which
is what makes E17 scorecards comparable across hardening arms and
bit-identical across worker counts.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from repro.serving.service import Request


@dataclasses.dataclass(frozen=True, slots=True)
class UserCohort:
    """One slice of the user population.

    Attributes:
        name: cohort label (appears on requests and scorecard splits).
        weight: relative share of arrivals routed to this cohort.
        payload_bytes: request payload size.
        deadline_ms: end-to-end latency budget for this cohort.
        n_users: size of the cohort's user-id space; ``route_key`` is
            drawn uniformly from it, so popular-key caching and
            consistent-hash spread are both exercised.
    """

    name: str
    weight: float = 1.0
    payload_bytes: int = 16
    deadline_ms: float = 30.0
    n_users: int = 256

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(
                f"cohort weight must be positive and finite, got {self.weight}"
            )
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")


#: the default population: latency-sensitive interactive traffic plus a
#: heavier batch tail with a looser deadline
DEFAULT_COHORTS: tuple[UserCohort, ...] = (
    UserCohort("interactive", weight=3.0, payload_bytes=16,
               deadline_ms=30.0, n_users=512),
    UserCohort("batch", weight=1.0, payload_bytes=64,
               deadline_ms=120.0, n_users=64),
)


@dataclasses.dataclass(frozen=True, slots=True)
class LoadPhase:
    """One linear segment of the arrival-rate script.

    The rate at offset ``t`` into the phase interpolates linearly from
    ``start_rate`` to ``end_rate`` (equal values = a plateau).
    """

    ticks: int
    start_rate: float
    end_rate: float

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("phase ticks must be >= 1")
        for field, rate in (
            ("start_rate", self.start_rate), ("end_rate", self.end_rate)
        ):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(
                    f"{field} must be finite and non-negative, got {rate}"
                )

    def rate_at(self, offset: int) -> float:
        if self.ticks == 1:
            return self.start_rate
        fraction = min(max(offset, 0), self.ticks - 1) / (self.ticks - 1)
        return self.start_rate + (self.end_rate - self.start_rate) * fraction


class LoadProfile:
    """A piecewise-linear arrival-rate script over campaign ticks."""

    def __init__(self, phases: list[LoadPhase]):
        if not phases:
            raise ValueError("a LoadProfile needs at least one phase")
        self.phases = list(phases)

    def rate_at(self, tick: int) -> float:
        """Arrival rate at ``tick``; the final rate holds past the end."""
        offset = tick
        for phase in self.phases:
            if offset < phase.ticks:
                return phase.rate_at(offset)
            offset -= phase.ticks
        return self.phases[-1].rate_at(self.phases[-1].ticks - 1)

    @classmethod
    def steady(cls, rate: float, ticks: int) -> "LoadProfile":
        """A flat plateau — the null traffic hypothesis."""
        return cls([LoadPhase(ticks, rate, rate)])

    @classmethod
    def ramp(
        cls, base_rate: float, peak_rate: float, ticks: int
    ) -> "LoadProfile":
        """Warm up, climb to peak, hold, and cool down (20/30/35/15%).

        The canonical open-loop shape: the climb exposes autoscaler
        reaction time, the hold exposes steady-state SLOs at peak, the
        cooldown exposes scale-down behaviour.
        """
        warm = max(1, ticks // 5)
        climb = max(1, (ticks * 3) // 10)
        cool = max(1, (ticks * 3) // 20)
        hold = max(1, ticks - warm - climb - cool)
        return cls([
            LoadPhase(warm, base_rate, base_rate),
            LoadPhase(climb, base_rate, peak_rate),
            LoadPhase(hold, peak_rate, peak_rate),
            LoadPhase(cool, peak_rate, base_rate),
        ])


class LoadGenerator:
    """Open-loop request source: seeded, cohort-aware, ramp-scripted.

    ``arrivals(tick)`` draws ``Poisson(profile.rate_at(tick) × burst)``
    requests.  The ``burst_multiplier`` hook is how chaos
    ``TRAFFIC_BURST`` windows compose with the scripted profile —
    the script models planned load, chaos models the unplanned spike.
    """

    def __init__(
        self,
        profile: LoadProfile,
        cohorts: tuple[UserCohort, ...] = DEFAULT_COHORTS,
        seed: int = 0,
    ):
        if not cohorts:
            raise ValueError("need at least one cohort")
        names = [c.name for c in cohorts]
        if len(set(names)) < len(names):
            raise ValueError(f"cohort names must be unique, got {names}")
        self.profile = profile
        self.cohorts = tuple(cohorts)
        self.rng = np.random.default_rng(seed)
        # Generator.choice(n, p=...)'s own cdf: a right-bisect of one
        # random() double over it draws the index choice would draw
        weights = np.array([c.weight for c in self.cohorts], dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._cohort_cdf: list[float] = cdf.tolist()
        # cohorts get disjoint key spaces so "interactive user 7" and
        # "batch user 7" are different users
        self._key_offsets = [
            sum(c.n_users for c in self.cohorts if c.name < cohort.name)
            for cohort in self.cohorts
        ]
        self._next_request_id = 0
        self.generated = 0

    def arrivals(
        self, tick: int, burst_multiplier: float = 1.0
    ) -> list[Request]:
        """This tick's arrivals (possibly empty), in issue order."""
        rate = self.profile.rate_at(tick) * burst_multiplier
        count = int(self.rng.poisson(rate)) if rate > 0 else 0
        requests: list[Request] = []
        for _ in range(count):
            index = bisect.bisect_right(self._cohort_cdf, self.rng.random())
            cohort = self.cohorts[index]
            user = int(self.rng.integers(cohort.n_users))
            requests.append(
                Request(
                    request_id=self._next_request_id,
                    payload=self.rng.bytes(cohort.payload_bytes),
                    deadline_ms=cohort.deadline_ms,
                    arrival_tick=tick,
                    route_key=user + self._key_offsets[index],
                    cohort=cohort.name,
                )
            )
            self._next_request_id += 1
        self.generated += count
        return requests


__all__ = [
    "DEFAULT_COHORTS",
    "LoadGenerator",
    "LoadPhase",
    "LoadProfile",
    "UserCohort",
]
