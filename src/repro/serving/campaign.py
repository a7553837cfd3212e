"""Serving campaigns: traffic + chaos + hardening + SLO scorecard.

A campaign drives a request stream against an :mod:`repro.serving`
service for a scripted number of ticks, injects
:class:`~repro.chaos.ChaosSchedule` faults along the way, and scores
the configuration on the metrics a service owner actually has SLOs
for:

- **corrupt-response escape rate** — well-formed but wrong responses
  delivered as OK (the paper's silent-corruption hazard, measured
  against ground truth the service itself never sees);
- **availability** — fraction of arrivals answered OK in deadline;
- **p99 latency proxy** — tail of the simulated end-to-end latency;
- **goodput** — *valid* OK responses per tick.

Validator catches and breaker trips become
:class:`~repro.core.events.CeeEvent` entries feeding the §6 detection
loop the :class:`~repro.campaign.Campaign` kernel runs; when it pulls
the offending core, the replica is re-placed on a spare.

:class:`RequestCampaign` is what this runner and the E17
:class:`~repro.serving.scale_campaign.ServeScaleCampaign` share on top
of the kernel: the request RNG, the trusted validator, the
``serving_*`` metrics and one attempt against one replica.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.campaign import (
    Campaign,
    CampaignScorecard,
    Published,
    build_small_fleet,
    check_at_least,
)
from repro.core.events import EventKind
from repro.core.policy import PolicyConfig
from repro.fleet.machine import Machine
from repro.obs import names
from repro.serving.cluster import RoundRobinRouter
from repro.serving.robustness import (
    HEDGE_DELAY_MS,
    RETRY_MAX_ATTEMPTS,
    BreakerBoard,
    HardeningConfig,
    LoadShedder,
    ResponseValidator,
    backoff_ms,
)
from repro.serving.service import (
    Attempt,
    AttemptOutcome,
    Request,
    Response,
    ResponseStatus,
    ServerReplica,
)
from repro.silicon.aging import AgingProfile
from repro.silicon.core import Core
from repro.silicon.defects import DefectModel, StuckBitDefect
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.units import FunctionalUnit


@dataclasses.dataclass
class CampaignConfig:
    """Traffic, capacity and timing knobs for one campaign."""

    ticks: int = 800
    tick_ms: float = 2.0
    arrivals_per_tick: float = 3.0
    n_replicas: int = 4
    per_replica_per_tick: int = 2
    payload_bytes: int = 16
    deadline_ms: float = 30.0
    base_latency_ms: float = 1.0
    straggler_prob: float = 0.03
    straggler_factor: float = 12.0
    #: connection-failure penalty when a core drops mid-RPC
    offline_penalty_ms: float = 0.5
    #: machine-check penalty (the OS eats the fault and kills the RPC)
    mce_penalty_ms: float = 2.0
    policy: PolicyConfig = dataclasses.field(default_factory=PolicyConfig)

    def __post_init__(self) -> None:
        check_at_least("ticks", self.ticks, 0)


@dataclasses.dataclass
class SloScorecard(CampaignScorecard):
    """What one campaign configuration achieved."""

    rates = ("escape_rate", "availability", "p50_latency_ms",
             "p99_latency_ms", "goodput_per_tick")

    total_arrivals: int = 0
    ok: int = 0
    corrupt_escapes: int = 0
    corrupt_caught: int = 0
    timeouts: int = 0
    shed: int = 0
    unavailable: int = 0
    failed: int = 0
    retries: int = 0
    hedges: int = 0
    machine_checks: int = 0
    breaker_trips: int = 0
    latencies_ms: list[float] = dataclasses.field(default_factory=list)

    @property
    def availability(self) -> float:
        if self.total_arrivals == 0:
            return 1.0
        return self.ok / self.total_arrivals

    @property
    def escape_rate(self) -> float:
        """Corrupt responses delivered per OK response."""
        if self.ok == 0:
            return 0.0
        return self.corrupt_escapes / self.ok

    @property
    def answered(self) -> int:
        """Responses a user got back with payload."""
        return self.ok

    @property
    def valid_ok(self) -> int:
        return self.ok - self.corrupt_escapes

    @property
    def goodput_per_tick(self) -> float:
        if self.ticks == 0:
            return 0.0
        return self.valid_ok / self.ticks

    @property
    def throughput_per_tick(self) -> float:
        if self.ticks == 0:
            return 0.0
        return self.ok / self.ticks

    def latency_percentile(self, q: float) -> float:
        return self.percentile(self.latencies_ms, q)

    @property
    def p50_latency_ms(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_ms(self) -> float:
        return self.latency_percentile(99.0)

    def summary_row(self) -> list[str]:
        return [
            self.name,
            f"{self.escape_rate:.2%}",
            f"{self.availability:.2%}",
            f"{self.p99_latency_ms:.1f}",
            f"{self.goodput_per_tick:.2f}",
            str(self.corrupt_caught),
            str(self.breaker_trips),
            str(len(self.quarantine_tick)),
        ]


class RequestCampaign(Campaign):
    """The request path both serving runners put on the kernel."""

    scorecard: SloScorecard
    quarantine_span = names.SPAN_SERVING_QUARANTINE
    published = (
        Published(
            names.SERVING_REQUESTS_TOTAL, "counter", "requests",
            "terminal request outcomes, by client-visible status",
            lambda card: {
                ResponseStatus.OK.value: card.answered,
                ResponseStatus.TIMEOUT.value: card.timeouts,
                ResponseStatus.SHED.value: card.shed,
                ResponseStatus.UNAVAILABLE.value: card.unavailable,
                ResponseStatus.FAILED.value: card.failed,
            },
            label="status",
        ),
        Published(
            names.SERVING_LATENCY_MS, "histogram", "ms",
            "end-to-end latency of OK responses (simulated)",
            lambda card: card.latencies_ms,
        ),
        Published(
            names.SERVING_CORRUPT_ESCAPES_TOTAL, "counter", "responses",
            "corrupt responses delivered as OK (ground truth)",
            lambda card: card.corrupt_escapes,
        ),
        Published(
            names.SERVING_CORRUPT_CAUGHT_TOTAL, "counter", "responses",
            "responses rejected by the e2e validator",
            lambda card: card.corrupt_caught,
        ),
        Published(
            names.SERVING_QUARANTINES_TOTAL, "counter", "cores",
            "cores pulled from the replica pool by the campaign "
            "policy loop",
            lambda card: len(card.quarantine_tick),
        ),
    )

    def __init__(
        self,
        machines: list[Machine],
        config,
        hardening,
        scorecard: SloScorecard,
        seed: int,
    ):
        super().__init__(
            machines, scorecard, config.policy, label="serving",
            tick_ms=config.tick_ms, seed=seed,
        )
        self.config = config
        self.hardening = hardening
        self.rng = np.random.default_rng(seed)
        self.validator = (
            ResponseValidator(self.client_core) if hardening.validate else None
        )

    def _make_replica(self, core: Core, replica_id: str) -> ServerReplica:
        cfg = self.config
        return ServerReplica(
            replica_id,
            core,
            base_latency_ms=cfg.base_latency_ms,
            straggler_prob=cfg.straggler_prob,
            straggler_factor=cfg.straggler_factor,
        )

    def _attempt_once(
        self,
        breakers: BreakerBoard | None,
        replica: ServerReplica,
        request: Request,
        expected_checksum: int | bytes | None,
        hedged: bool = False,
    ) -> tuple[Attempt, bytes | None]:
        cfg = self.config
        core_id = replica.core_id
        now_ms = self.now_ms
        try:
            payload, latency = replica.serve(request, self.rng)
        except MachineCheckError:
            self.scorecard.machine_checks += 1
            self.emit(core_id, EventKind.MACHINE_CHECK, "mce in RPC")
            if breakers:
                breakers.record_failure(core_id, now_ms, "machine check")
            return (
                Attempt(core_id, AttemptOutcome.MACHINE_CHECK,
                        cfg.mce_penalty_ms, hedged),
                None,
            )
        except CoreOfflineError:
            return (
                Attempt(core_id, AttemptOutcome.CORE_OFFLINE,
                        cfg.offline_penalty_ms, hedged),
                None,
            )
        if self.validator is not None and expected_checksum is not None:
            if not self.validator.validate(expected_checksum, payload):
                self.scorecard.corrupt_caught += 1
                self.emit(
                    core_id, EventKind.APP_REPORT, "e2e checksum mismatch"
                )
                if breakers:
                    breakers.record_failure(
                        core_id, now_ms, "checksum mismatch"
                    )
                return (
                    Attempt(core_id, AttemptOutcome.CORRUPT_CAUGHT,
                            latency, hedged),
                    None,
                )
        if breakers:
            breakers.record_success(core_id, now_ms)
        return Attempt(core_id, AttemptOutcome.OK, latency, hedged), payload


def _draw_payloads(
    rng: np.random.Generator, count: int, payload_bytes: int
) -> list[bytes]:
    """``count`` calls of ``rng.bytes(payload_bytes)`` in one draw.

    ``Generator.bytes(n)`` takes ``max(1, ceil(n / 4))`` 32-bit words
    and keeps the first ``n`` bytes, so slicing one draw of ``count``
    such strides gives the same payloads and leaves the bit generator
    in the same state.  No call at all for ``count == 0``: even
    ``bytes(0)`` takes a word.
    """
    if count == 0:
        return []
    stride = max(1, -(-payload_bytes // 4)) * 4
    blob = rng.bytes(count * stride)
    return [
        blob[start:start + payload_bytes]
        for start in range(0, count * stride, stride)
    ]


class ServingCampaign(RequestCampaign):
    """One configuration, one fleet, one chaos script, one scorecard."""

    def __init__(
        self,
        machines: list[Machine],
        config: CampaignConfig | None = None,
        hardening: HardeningConfig | None = None,
        seed: int = 0,
    ):
        hardening = hardening or HardeningConfig.hardened()
        super().__init__(
            machines, config or CampaignConfig(), hardening,
            SloScorecard(name=hardening.name), seed,
        )
        self.breakers = (
            BreakerBoard(self.events) if hardening.breaker else None
        )
        self.shedder = LoadShedder() if hardening.shed else None
        self.router = RoundRobinRouter(self._place_initial_replicas())
        self._queue: list[Request] = []
        self._next_request_id = 0
        self.responses: list[Response] = []

    # -- placement -----------------------------------------------------

    def _place_initial_replicas(self) -> list[ServerReplica]:
        return [
            self._make_replica(core, f"replica/{i}")
            for i, core in enumerate(
                self.place(self.config.n_replicas, "replicas")
            )
        ]

    def hosted_on(self, core_id: str) -> list[ServerReplica]:
        return [r for r in self.router.replicas if r.core_id == core_id]

    def replace_quarantined(self) -> None:
        """Re-place each replica off its (now quarantined) core."""
        for replica in self.router.replicas:
            if replica.core_id not in self.scorecard.quarantine_tick:
                continue
            new_core = self.spare_core(
                {r.core_id for r in self.router.replicas}
            )
            if new_core is None:
                continue  # degraded: serve with fewer replicas
            self.router.replace(
                replica,
                self._make_replica(
                    new_core, f"replica/{len(self.router.replicas)}"
                ),
            )

    # -- one request ---------------------------------------------------

    def _dispatch(self, request: Request, now_ms: float,
                  queue_wait_ms: float) -> Response:
        hardening = self.hardening
        expected = (
            self.validator.checksum(request.payload)
            if self.validator is not None else None
        )
        max_attempts = RETRY_MAX_ATTEMPTS if hardening.retry else 1
        attempts: list[Attempt] = []
        tried: set[str] = set()
        total_latency = queue_wait_ms

        for attempt_index in range(max_attempts):
            # core diversity: never retry on an already-tried core
            exclude = set(tried)
            if self.breakers:
                exclude |= self.breakers.open_core_ids(now_ms)
            replica = self.router.pick(exclude)
            if replica is None:
                break
            if attempt_index > 0:
                self.scorecard.retries += 1
                total_latency += backoff_ms(attempt_index - 1, self.rng)
            attempt, payload = self._attempt_once(
                self.breakers, replica, request, expected
            )
            attempts.append(attempt)
            tried.add(replica.core_id)
            effective = attempt.latency_ms
            winner = replica.core_id

            # Tail hedging: duplicate a slow-looking primary elsewhere.
            if (
                hardening.hedge
                and attempt.outcome is AttemptOutcome.OK
                and attempt.latency_ms > HEDGE_DELAY_MS
            ):
                hedge_exclude = exclude | {replica.core_id}
                hedge_replica = self.router.pick(hedge_exclude)
                if hedge_replica is not None:
                    self.scorecard.hedges += 1
                    h_attempt, h_payload = self._attempt_once(
                        self.breakers, hedge_replica, request, expected,
                        hedged=True,
                    )
                    attempts.append(h_attempt)
                    tried.add(hedge_replica.core_id)
                    if h_attempt.outcome is AttemptOutcome.OK:
                        h_effective = HEDGE_DELAY_MS + h_attempt.latency_ms
                        if h_effective < effective:
                            effective = h_effective
                            payload = h_payload
                            winner = hedge_replica.core_id

            total_latency += effective
            if attempt.outcome is AttemptOutcome.OK:
                status = (
                    ResponseStatus.OK
                    if total_latency <= request.deadline_ms
                    else ResponseStatus.TIMEOUT
                )
                return Response(
                    request.request_id, status, payload, winner,
                    total_latency, attempts,
                    validated=self.validator is not None,
                )

        status = (
            ResponseStatus.UNAVAILABLE if not attempts
            else ResponseStatus.FAILED
        )
        return Response(
            request.request_id, status, None, None, total_latency, attempts
        )

    # -- the main loop -------------------------------------------------

    def run(self) -> SloScorecard:
        cfg = self.config
        card = self.scorecard
        for tick in range(cfg.ticks):
            now_ms = self.begin_tick(tick)

            live = len(self.router.live_replicas())
            capacity = live * cfg.per_replica_per_tick
            arrivals = int(self.rng.poisson(
                cfg.arrivals_per_tick * self.burst_multiplier
            ))
            card.total_arrivals += arrivals

            admitted = arrivals
            if self.shedder is not None:
                admitted = self.shedder.admit(
                    len(self._queue), arrivals, max(capacity, 1)
                )
                card.shed += arrivals - admitted
            for payload in _draw_payloads(self.rng, admitted, cfg.payload_bytes):
                self._queue.append(
                    Request(
                        request_id=self._next_request_id,
                        payload=payload,
                        deadline_ms=cfg.deadline_ms,
                        arrival_tick=tick,
                    )
                )
                self._next_request_id += 1

            batch, self._queue = (
                self._queue[:capacity], self._queue[capacity:]
            )
            for request in batch:
                queue_wait = (tick - request.arrival_tick) * cfg.tick_ms
                with obs.tracer.span(
                    "serving.request", request_id=request.request_id
                ) as sp:
                    response = self._dispatch(request, now_ms, queue_wait)
                    sp.attrs["status"] = response.status.value
                    sp.attrs["attempts"] = response.n_attempts
                self.responses.append(response)
                self._score(request, response)

            self.end_tick(tick)

        # Whatever is still queued at the end never got served.
        for request in self._queue:
            card.unavailable += 1
        self._queue.clear()
        if self.breakers:
            card.breaker_trips = self.breakers.total_trips
        self.finish(cfg.ticks)
        return card

    def _score(self, request: Request, response: Response) -> None:
        card = self.scorecard
        if response.status is ResponseStatus.OK:
            card.ok += 1
            card.latencies_ms.append(response.latency_ms)
            # Ground truth (the experimenter's oracle, never the
            # service's): an echo service must return what it was sent.
            if response.payload != request.payload:
                card.corrupt_escapes += 1
        elif response.status is ResponseStatus.TIMEOUT:
            card.timeouts += 1
        elif response.status is ResponseStatus.UNAVAILABLE:
            card.unavailable += 1
        elif response.status is ResponseStatus.FAILED:
            card.failed += 1


# ---------------------------------------------------------------------
# fleet construction for serving experiments
# ---------------------------------------------------------------------

def copy_path_defect(
    core_id: str, base_rate: float, onset_days: float
) -> tuple[DefectModel, ...]:
    """The serving fleets' defect: a stuck bit on the load/store unit —
    the §2 "repeated bit-flips ... at a particular bit position"
    archetype, which corrupts the serving copy path while leaving
    responses well-formed."""
    return (
        StuckBitDefect(
            f"defect/{core_id}",
            bit=17,
            base_rate=base_rate,
            unit=FunctionalUnit.LOAD_STORE,
            aging=AgingProfile(onset_days=onset_days),
        ),
    )


def build_serving_fleet(
    n_machines: int = 4,
    cores_per_machine: int = 4,
    bad_machine: int = 0,
    bad_core: int = 1,
    base_rate: float = 0.05,
    onset_days: float = 0.0,
    seed: int = 7,
) -> tuple[list[Machine], str]:
    """A small fleet with exactly one (possibly late-onset) bad core,
    carrying :func:`copy_path_defect`.  Returns (machines, bad core id).
    """
    def defects_for(core_id: str, index: int) -> tuple[DefectModel, ...]:
        if divmod(index, cores_per_machine) != (bad_machine, bad_core):
            return ()
        return copy_path_defect(core_id, base_rate, onset_days)

    machines, bad = build_small_fleet(
        n_machines, cores_per_machine, seed, defects_for
    )
    return machines, bad[0] if bad else ""


__all__ = [
    "CampaignConfig",
    "RequestCampaign",
    "ServingCampaign",
    "SloScorecard",
    "build_serving_fleet",
    "copy_path_defect",
]
