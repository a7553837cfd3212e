"""A simulated RPC service whose server cores may be mercurial.

§7's call to action is software that *tolerates* mercurial cores, and
the Facebook SDC-at-scale follow-up work frames silent corruption as a
fleet-*serving* problem: a defective core in a service stack returns a
*corrupted but well-formed* response, and nothing at the RPC layer
looks wrong.  This module models exactly that hazard:

- a :class:`Request` carries a payload and a deadline;
- a :class:`ServerReplica` wraps one fleet :class:`~repro.silicon.core.Core`
  and serves requests by moving the payload through the core's copy
  datapath (:func:`repro.workloads.copying.copy_bytes`), so a defective
  load/store or shared-logic unit corrupts real bytes exactly where a
  real one would;
- the serving campaigns route requests across replicas placed on
  fleet cores by :meth:`repro.campaign.Campaign.place`, applying
  whatever hardening (validation, retries, hedging, breakers) the
  configuration enables — see :mod:`repro.serving.robustness`.

Latency is a proxy model (milliseconds of simulated time), not wall
clock: base service time plus seeded jitter, occasional stragglers
(the hedging target), queueing delay added by the campaign driver, and
backoff delay added by the retry policy.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro import obs
from repro.silicon.core import Core
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.workloads.copying import copy_bytes


class ResponseStatus(enum.Enum):
    """Terminal status of one request, as the client sees it."""

    OK = "ok"                  # a response was delivered in time
    TIMEOUT = "timeout"        # deadline exceeded (incl. retries/backoff)
    SHED = "shed"              # load shedder refused it at admission
    UNAVAILABLE = "unavailable"  # no live replica to serve it
    FAILED = "failed"          # every attempt errored or was rejected


class AttemptOutcome(enum.Enum):
    """What one server-side attempt produced."""

    OK = "ok"
    CORRUPT_CAUGHT = "corrupt_caught"  # validator rejected the response
    MACHINE_CHECK = "machine_check"    # fail-noisy defect fired mid-RPC
    CORE_OFFLINE = "core_offline"      # crash / quarantine raced the RPC


@dataclasses.dataclass(frozen=True, slots=True)
class Request:
    """One client request.

    Attributes:
        request_id: unique id within a campaign.
        payload: bytes the service must echo back intact.
        deadline_ms: end-to-end latency budget.
        arrival_tick: campaign tick the request arrived on.
        route_key: stable user/session key (consistent-hash routing and
            the stale-response cache key); 0 when unrouted.
        cohort: name of the user cohort that issued the request.
    """

    request_id: int
    payload: bytes
    deadline_ms: float
    arrival_tick: int = 0
    route_key: int = 0
    cohort: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Attempt:
    """One try at one replica."""

    core_id: str
    outcome: AttemptOutcome
    latency_ms: float
    hedged: bool = False


@dataclasses.dataclass(slots=True)
class Response:
    """What the client ultimately observes for one request."""

    request_id: int
    status: ResponseStatus
    payload: bytes | None
    core_id: str | None
    latency_ms: float
    attempts: list[Attempt] = dataclasses.field(default_factory=list)
    validated: bool = False
    #: served from the degradation tier's stale cache, not a live core
    stale: bool = False

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)


class ServerReplica:
    """One serving process pinned to one fleet core.

    The replica's entire data path runs through :meth:`Core.execute`,
    so a mercurial core silently corrupts the echoed payload — the
    response stays well-formed (right length, right framing) and only
    an end-to-end check can tell it is wrong.
    """

    def __init__(
        self,
        replica_id: str,
        core: Core,
        base_latency_ms: float = 1.0,
        straggler_prob: float = 0.03,
        straggler_factor: float = 12.0,
    ):
        self.replica_id = replica_id
        self.core = core
        self.base_latency_ms = base_latency_ms
        self.straggler_prob = straggler_prob
        self.straggler_factor = straggler_factor
        #: chaos hook: force the next N requests to raise machine checks
        self.forced_mce_remaining = 0
        self.requests_served = 0
        #: attempts routed here (counts picks, not completions, so it is
        #: monotone per tick)
        self.assigned = 0

    @property
    def core_id(self) -> str:
        return self.core.core_id

    @property
    def available(self) -> bool:
        return self.core.online

    def sample_latency_ms(self, rng: np.random.Generator) -> float:
        """Service-time proxy: base + exponential tail, rare stragglers."""
        latency = self.base_latency_ms * (0.6 + float(rng.exponential(0.5)))
        if rng.random() < self.straggler_prob:
            latency *= self.straggler_factor
        return latency

    def serve(self, request: Request, rng: np.random.Generator) -> tuple[bytes, float]:
        """Serve one request; returns (response payload, latency ms).

        Raises:
            MachineCheckError: a fail-noisy defect (or chaos) fired.
            CoreOfflineError: the core crashed or was quarantined.
        """
        with obs.tracer.span(
            "serving.serve", replica=self.replica_id, core_id=self.core_id
        ) as sp:
            latency = self.sample_latency_ms(rng)
            if self.forced_mce_remaining > 0:
                self.forced_mce_remaining -= 1
                raise MachineCheckError(
                    self.core_id, "copy", "chaos-injected machine check"
                )
            echoed = copy_bytes(self.core, request.payload)
            self.requests_served += 1
            sp.attrs["latency_ms"] = latency
            return echoed, latency


__all__ = [
    "Attempt",
    "AttemptOutcome",
    "Request",
    "Response",
    "ResponseStatus",
    "ServerReplica",
]
