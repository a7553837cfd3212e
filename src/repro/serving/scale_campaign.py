"""The E17 serve-at-scale campaign: sharded, hedged, budgeted, degraded.

:mod:`repro.serving.campaign` proves the hardening mechanisms on one
replica set; this driver runs them the way a planet-scale service
would, against a fleet where *several* cores are mercurial at once:

- traffic comes from the open-loop :class:`~repro.serving.loadgen.LoadGenerator`
  (arrival ramps, user cohorts, stable per-user ``route_key``);
- the service is a :class:`~repro.serving.cluster.ShardedCluster` with a
  pluggable per-shard router, per-shard
  :class:`~repro.serving.robustness.BreakerBoard`, retry-budget token
  bucket, stale-response cache and degradation tier;
- the request path adds what E15 lacked: **deadline propagation** (no
  attempt or hedge is launched once the remaining budget cannot pay for
  it), **retry budgets** (a drained bucket refuses the retry and emits
  ``RETRY_BUDGET_EXHAUSTED`` instead of amplifying an incident), and a
  **graceful-degradation ladder** (shed → serve-stale → fail-closed)
  driven by the cluster-wide fraction of open breakers;
- an :class:`~repro.serving.cluster.Autoscaler` adds replicas on the
  fleet's free cores (:meth:`repro.campaign.Campaign.free_cores`) and
  drains them as utilization moves.

The scorecard extends E15's SLO view with the tail the paper's
fleet-scale framing cares about — p99.9 latency, stale-served and
fail-closed counts, hedge win rates, budget exhaustion — while keeping
the same ground-truth corruption oracle: an echo service must return
the bytes it was sent, and only responses *delivered as fresh OK* count
as user-visible corruption (a response labelled stale is degraded
service, not silent corruption).

Determinism contract: everything derives from the campaign seed (fleet
cores, load generator, service jitter); routing uses process-stable
hashes; obs metrics/spans are emission-only — scorecards are
byte-identical with observability on or off, and across worker counts.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np

from repro import obs
from repro.campaign import Published, build_small_fleet, check_at_least
from repro.core.events import EventKind
from repro.core.policy import PolicyConfig
from repro.fleet.machine import Machine
from repro.obs import names
from repro.serving.campaign import (
    RequestCampaign,
    SloScorecard,
    copy_path_defect,
)
from repro.serving.cluster import (
    ROUTER_POLICIES,
    SHED_QUEUE_FACTOR,
    Autoscaler,
    DegradationTier,
    Shard,
    ShardedCluster,
    TIER_ORDER,
    tier_for,
)
from repro.serving.loadgen import LoadGenerator, LoadProfile
from repro.serving.robustness import (
    HEDGE_DELAY_MS,
    MAX_QUEUE_FACTOR,
    RETRY_MAX_ATTEMPTS,
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
from repro.silicon.core import Core
from repro.silicon.defects import DefectModel


# ---------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------

# The cluster and traffic shape of every E17 run.
N_SHARDS = 3
REPLICAS_PER_SHARD = 3
N_REPLICAS = N_SHARDS * REPLICAS_PER_SHARD
PER_REPLICA_PER_TICK = 2
#: the default load ramp's arrivals per tick, start and peak
BASE_RATE = 6.0
PEAK_RATE = 14.0
#: latency of a stale-cache hit (no core in the path)
STALE_LATENCY_MS = 0.3


@dataclasses.dataclass
class ScaleConfig:
    """Run length and quarantine budget for one E17 run."""

    ticks: int = 600
    #: the multi-bad-core fleet needs a wider quarantine budget than the
    #: single-defect default (2% of 32 cores rounds to one core)
    policy: PolicyConfig = dataclasses.field(
        default_factory=lambda: PolicyConfig(max_quarantined_fraction=0.3)
    )
    # Timing and service-time shape: constants, not options.  They are
    # read through the config because the request path E15 shares
    # reads them off ``CampaignConfig``.
    tick_ms: ClassVar[float] = 2.0
    base_latency_ms: ClassVar[float] = 1.0
    straggler_prob: ClassVar[float] = 0.03
    straggler_factor: ClassVar[float] = 12.0
    offline_penalty_ms: ClassVar[float] = 0.5
    mce_penalty_ms: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        check_at_least("ticks", self.ticks, 0)


@dataclasses.dataclass(frozen=True)
class ScaleHardening:
    """Which defences the sharded service runs (the E17 arm knob)."""

    name: str = "full"
    validate: bool = True
    retry: bool = True
    retry_budget: bool = True
    hedge: bool = True
    breaker: bool = True
    shed: bool = True
    degradation: bool = True
    autoscale: bool = True
    router_policy: str = "consistent-hash"

    def __post_init__(self) -> None:
        if self.router_policy not in ROUTER_POLICIES:
            raise ValueError(f"unknown router policy {self.router_policy!r}")

    @classmethod
    def baseline(cls) -> "ScaleHardening":
        """The naive cluster: trust every response, never reroute."""
        return cls(
            name="baseline", validate=False, retry=False, retry_budget=False,
            hedge=False, breaker=False, shed=False, degradation=False,
            autoscale=False, router_policy="round-robin",
        )

    @classmethod
    def retries_breakers(cls) -> "ScaleHardening":
        """Validation + budgeted retries + breakers, no hedging or
        degradation ladder — the middle rung of the mitigation-spend
        grid."""
        return cls(
            name="retries+breakers", hedge=False, degradation=False,
            autoscale=False,
        )

    @classmethod
    def full(cls) -> "ScaleHardening":
        """Everything on: hedging, degradation tiers, autoscaling."""
        return cls()


# ---------------------------------------------------------------------
# the scorecard
# ---------------------------------------------------------------------

@dataclasses.dataclass
class ScaleScorecard(SloScorecard):
    """What one (prevalence, hardening) cell achieved.

    E15's SLO card plus the degraded-service tail.  ``availability``
    stays strict (fresh in-deadline OK per arrival) and ``escape_rate``
    counts only wrong bytes delivered as *fresh* OK.
    """

    rates = SloScorecard.rates + (
        "answered_rate", "p999_latency_ms", "hedge_win_rate",
    )

    fail_closed: int = 0
    stale_served: int = 0
    retry_budget_exhausted: int = 0
    hedges_won: int = 0
    autoscale_ups: int = 0
    autoscale_downs: int = 0
    #: ticks each shard spent in each non-normal tier (summed over shards)
    degraded_ticks: dict[str, int] = dataclasses.field(default_factory=dict)
    per_cohort: dict[str, dict[str, int]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def answered(self) -> int:
        """Responses a user got back with payload: fresh OK + stale."""
        return self.ok + self.stale_served

    @property
    def answered_rate(self) -> float:
        """OK + stale per arrival (what degraded service still delivers)."""
        if self.total_arrivals == 0:
            return 1.0
        return self.answered / self.total_arrivals

    @property
    def hedge_win_rate(self) -> float:
        if self.hedges == 0:
            return 0.0
        return self.hedges_won / self.hedges

    @property
    def p999_latency_ms(self) -> float:
        return self.latency_percentile(99.9)

    def summary_row(self) -> list[str]:
        return [
            self.name,
            f"{self.escape_rate:.3%}",
            f"{self.availability:.2%}",
            f"{self.p50_latency_ms:.1f}",
            f"{self.p99_latency_ms:.1f}",
            f"{self.p999_latency_ms:.1f}",
            str(self.stale_served),
            str(self.fail_closed),
            f"{self.hedges_won}/{self.hedges}",
            str(self.retry_budget_exhausted),
            str(len(self.quarantine_tick)),
        ]


# ---------------------------------------------------------------------
# the campaign driver
# ---------------------------------------------------------------------

class ServeScaleCampaign(RequestCampaign):
    """One hardening arm against one multi-defect fleet, sharded."""

    scorecard: ScaleScorecard
    published = RequestCampaign.published + (
        Published(
            names.SERVING_HEDGES_TOTAL, "counter", "hedges",
            "tail-latency hedges issued, by whether the hedge won",
            lambda card: {
                "won": card.hedges_won,
                "lost": card.hedges - card.hedges_won,
            },
            label="outcome",
        ),
        Published(
            names.SERVING_RETRIES_TOTAL, "counter", "retries",
            "retry attempts issued after a failed first attempt",
            lambda card: card.retries,
        ),
        Published(
            names.SERVING_RETRY_BUDGET_EXHAUSTED_TOTAL, "counter",
            "refusals",
            "retries refused because the shard's token bucket was dry",
            lambda card: card.retry_budget_exhausted,
        ),
        Published(
            names.SERVING_STALE_SERVED_TOTAL, "counter", "responses",
            "responses served from the degradation stale cache",
            lambda card: card.stale_served,
        ),
    )

    def __init__(
        self,
        machines: list[Machine],
        config: ScaleConfig | None = None,
        hardening: ScaleHardening | None = None,
        seed: int = 0,
    ):
        hardening = hardening or ScaleHardening.full()
        super().__init__(
            machines, config or ScaleConfig(), hardening,
            ScaleScorecard(name=hardening.name), seed,
        )
        self.loadgen = LoadGenerator(
            LoadProfile.ramp(BASE_RATE, PEAK_RATE, self.config.ticks),
            seed=seed + 11,
        )
        self.cluster = self._build_cluster()
        self.autoscaler = Autoscaler() if self.hardening.autoscale else None

        for cohort in self.loadgen.cohorts:
            self.scorecard.per_cohort[cohort.name] = {
                "arrivals": 0, "ok": 0, "corrupt_escapes": 0,
            }
        self._replica_seq = N_REPLICAS
        # The two families no scorecard field carries, counted inline:
        # tier *transitions* (the card has ticks-in-tier) and autoscale
        # actions actually *performed*.
        self._m_degraded = obs.metrics.counter(
            "serving_shard_degraded_total",
            help="shard degradation-tier escalations, by tier entered",
            unit="transitions",
        )
        self._m_autoscale = obs.metrics.counter(
            "serving_autoscale_actions_total",
            help="autoscaler replica additions and drains",
            unit="actions",
        )

    # -- placement -----------------------------------------------------

    def _build_cluster(self) -> ShardedCluster:
        hardening = self.hardening
        cores = self.place(N_REPLICAS, "shard replicas")
        router_cls = ROUTER_POLICIES[hardening.router_policy]
        shards = []
        for g in range(N_SHARDS):
            chunk = cores[g * REPLICAS_PER_SHARD:(g + 1) * REPLICAS_PER_SHARD]
            replicas = [
                self._make_replica(core, f"shard/{g}/r{i}")
                for i, core in enumerate(chunk)
            ]
            shards.append(
                Shard(
                    f"shard/{g}",
                    router_cls(replicas),
                    hardening.breaker,
                    event_log=self.events,
                    retry_budget=hardening.retry_budget,
                )
            )
        return ShardedCluster(shards)

    def _spare_core(self) -> Core | None:
        """A spare core, or None when the fleet is drained."""
        return self.spare_core({r.core_id for r in self.cluster.replicas()})

    def hosted_on(self, core_id: str) -> list[ServerReplica]:
        return [r for r in self.cluster.replicas() if r.core_id == core_id]

    def replace_quarantined(self) -> None:
        """Re-place each replica off its (now quarantined) core."""
        for shard in self.cluster.shards:
            for replica in list(shard.router.replicas):
                if replica.core_id not in self.scorecard.quarantine_tick:
                    continue
                core = self._spare_core()
                if core is None:
                    continue  # degraded: serve with fewer replicas
                self._replica_seq += 1
                shard.router.replace(
                    replica,
                    self._make_replica(
                        core, f"{shard.shard_id}/r{self._replica_seq}"
                    ),
                )

    # -- one request ---------------------------------------------------

    def _dispatch(self, shard: Shard, request: Request, now_ms: float,
                  queue_wait_ms: float) -> Response:
        hardening = self.hardening
        card = self.scorecard
        expected = (
            self.validator.checksum(request.payload)
            if self.validator is not None else None
        )
        max_attempts = RETRY_MAX_ATTEMPTS if hardening.retry else 1
        attempts: list[Attempt] = []
        tried: set[str] = set()
        total_latency = queue_wait_ms

        for attempt_index in range(max_attempts):
            if attempt_index > 0:
                # Deadline propagation: a retry that cannot possibly
                # finish inside the budget is not launched at all.
                if total_latency >= request.deadline_ms:
                    break
                if shard.budget is not None and not shard.budget.try_spend():
                    card.retry_budget_exhausted += 1
                    self.emit(
                        shard.shard_id, EventKind.RETRY_BUDGET_EXHAUSTED,
                        f"request {request.request_id}: token bucket dry",
                    )
                    break
                card.retries += 1
                total_latency += backoff_ms(attempt_index - 1, self.rng)
            # core diversity: never retry on an already-tried core
            exclude = set(tried)
            if shard.breakers:
                exclude |= shard.breakers.open_core_ids(now_ms)
            replica = shard.router.pick(exclude, route_key=request.route_key)
            if replica is None:
                break
            attempt, payload = self._attempt_once(
                shard.breakers, replica, request, expected
            )
            attempts.append(attempt)
            tried.add(replica.core_id)
            effective = attempt.latency_ms
            winner = replica.core_id

            # Tail hedging: duplicate a slow-looking primary elsewhere —
            # but only when the deadline can still pay for the hedge.
            if (
                hardening.hedge
                and attempt.outcome is AttemptOutcome.OK
                and attempt.latency_ms > HEDGE_DELAY_MS
                and total_latency + HEDGE_DELAY_MS < request.deadline_ms
            ):
                hedge_exclude = exclude | {replica.core_id}
                hedge_replica = shard.router.pick(
                    hedge_exclude, route_key=request.route_key
                )
                if hedge_replica is not None:
                    card.hedges += 1
                    self.emit(
                        replica.core_id, EventKind.HEDGE_FIRED,
                        f"primary looked slow ({attempt.latency_ms:.1f}ms)",
                    )
                    h_attempt, h_payload = self._attempt_once(
                        shard.breakers, hedge_replica, request, expected,
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
                            card.hedges_won += 1

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

    def _serve_one(self, shard: Shard, request: Request, tick: int,
                   now_ms: float) -> Response:
        cfg = self.config
        card = self.scorecard
        queue_wait = (tick - request.arrival_tick) * cfg.tick_ms

        if shard.tier is DegradationTier.SERVE_STALE:
            cached = shard.stale_cache.get(request.route_key)
            if cached is not None:
                card.stale_served += 1
                return Response(
                    request.request_id, ResponseStatus.OK, cached, None,
                    queue_wait + STALE_LATENCY_MS, [], stale=True,
                )
            # cache miss: fall through to a (risky) live attempt

        response = self._dispatch(shard, request, now_ms, queue_wait)
        if (
            self.hardening.degradation
            and response.status is ResponseStatus.OK
            and not response.stale
            and response.payload is not None
        ):
            shard.stale_cache[request.route_key] = response.payload
        return response

    # -- degradation ---------------------------------------------------

    def _update_tiers(self, tick: int, now_ms: float) -> None:
        degradation = self.hardening.degradation
        card = self.scorecard
        for shard in self.cluster.shards:
            if not degradation:
                tier = DegradationTier.NORMAL
            else:
                tier = tier_for(self.cluster.distress(shard, now_ms))
            if TIER_ORDER[tier] > TIER_ORDER[shard.tier]:
                # escalation is the alarm-worthy transition
                self.emit(
                    shard.shard_id, EventKind.SHARD_DEGRADED,
                    f"{shard.tier.value} -> {tier.value}",
                )
                self._m_degraded.inc(tier=tier.value)
                with obs.tracer.span(
                    "serving.degrade", shard=shard.shard_id,
                    tier=tier.value, tick=tick,
                ):
                    pass
            shard.tier = tier
            if tier is not DegradationTier.NORMAL:
                card.degraded_ticks[tier.value] = (
                    card.degraded_ticks.get(tier.value, 0) + 1
                )

    # -- autoscaling ---------------------------------------------------

    def _autoscale(self, tick: int, now_ms: float) -> None:
        if self.autoscaler is None:
            return
        card = self.scorecard
        for shard in self.cluster.shards:
            action = self.autoscaler.decide(shard, tick)
            if action == 0:
                continue
            if action > 0:
                core = self._spare_core()
                if core is None:
                    continue
                self._replica_seq += 1
                shard.router.add(
                    self._make_replica(
                        core, f"{shard.shard_id}/r{self._replica_seq}"
                    )
                )
                card.autoscale_ups += 1
                direction = "up"
            else:
                live = shard.router.live_replicas()
                if not live:
                    continue
                # drain the most recently added live replica (LIFO keeps
                # the original placement as the stable core of the shard)
                shard.router.remove(live[-1])
                card.autoscale_downs += 1
                direction = "down"
            self.emit(
                shard.shard_id, EventKind.AUTOSCALE_ACTION,
                f"scale {direction} (util {shard.utilization:.2f})",
            )
            self._m_autoscale.inc(direction=direction)
            with obs.tracer.span(
                "serving.autoscale", shard=shard.shard_id,
                direction=direction, tick=tick,
            ):
                pass

    # -- the main loop -------------------------------------------------

    def run(self) -> ScaleScorecard:
        cfg = self.config
        card = self.scorecard
        for tick in range(cfg.ticks):
            now_ms = self.begin_tick(tick)
            self._update_tiers(tick, now_ms)

            arrivals = self.loadgen.arrivals(tick, self.burst_multiplier)
            card.total_arrivals += len(arrivals)
            per_shard: dict[str, list[Request]] = {
                shard.shard_id: [] for shard in self.cluster.shards
            }
            for request in arrivals:
                card.per_cohort[request.cohort]["arrivals"] += 1
                shard = self.cluster.shard_for(request.route_key)
                per_shard[shard.shard_id].append(request)

            for shard in self.cluster.shards:
                mine = per_shard[shard.shard_id]
                capacity = (
                    len(shard.router.live_replicas()) * PER_REPLICA_PER_TICK
                )

                if shard.tier is DegradationTier.FAIL_CLOSED:
                    # fail fast and clearly rather than risk wrong bytes
                    for request in mine:
                        card.fail_closed += 1
                        response = Response(
                            request.request_id, ResponseStatus.FAILED, None,
                            None, 0.0, [],
                        )
                        self._score(request, response)
                    admitted = 0
                else:
                    admitted = self._admit(shard, mine, capacity)

                if shard.budget is not None and admitted:
                    shard.budget.deposit(admitted)

                batch = shard.queue[:capacity]
                shard.queue = shard.queue[capacity:]
                for request in batch:
                    with obs.tracer.span(
                        "serving.scale_request",
                        request_id=request.request_id,
                        shard=shard.shard_id,
                    ) as sp:
                        response = self._serve_one(
                            shard, request, tick, now_ms
                        )
                        sp.attrs["status"] = response.status.value
                        sp.attrs["stale"] = response.stale
                    self._score(request, response)

                demand = admitted + len(shard.queue)
                shard.note_utilization(demand, max(capacity, 1))

            self.end_tick(tick)
            self._autoscale(tick, now_ms)

        for shard in self.cluster.shards:
            card.unavailable += len(shard.queue)
            shard.queue.clear()
        card.breaker_trips = sum(
            shard.breakers.total_trips
            for shard in self.cluster.shards if shard.breakers is not None
        )
        if self.autoscaler is not None:
            # cross-check the campaign's own counters against the scaler
            card.autoscale_ups = self.autoscaler.scale_ups
            card.autoscale_downs = self.autoscaler.scale_downs
        self.finish(cfg.ticks)
        return card

    def _admit(self, shard: Shard, arrivals: list[Request],
               capacity: int) -> int:
        """Admission control for one shard's arrivals; returns admitted."""
        card = self.scorecard
        hardening = self.hardening
        if shard.tier is not DegradationTier.NORMAL and hardening.degradation:
            factor = SHED_QUEUE_FACTOR
        elif hardening.shed:
            factor = MAX_QUEUE_FACTOR
        else:
            shard.queue.extend(arrivals)
            return len(arrivals)
        limit = int(factor * capacity)
        room = max(0, limit - len(shard.queue))
        admitted = arrivals[:room]
        card.shed += len(arrivals) - len(admitted)
        shard.queue.extend(admitted)
        return len(admitted)

    def _score(self, request: Request, response: Response) -> None:
        card = self.scorecard
        if response.stale:
            # degraded-but-honest: delivered, labelled stale, never
            # counted as fresh OK nor eligible as a silent corruption
            card.latencies_ms.append(response.latency_ms)
            return
        if response.status is ResponseStatus.OK:
            card.ok += 1
            card.per_cohort[request.cohort]["ok"] += 1
            card.latencies_ms.append(response.latency_ms)
            if response.payload != request.payload:
                card.corrupt_escapes += 1
                card.per_cohort[request.cohort]["corrupt_escapes"] += 1
        elif response.status is ResponseStatus.TIMEOUT:
            card.timeouts += 1
        elif response.status is ResponseStatus.UNAVAILABLE:
            card.unavailable += 1
        elif response.status is ResponseStatus.FAILED:
            card.failed += 1


# ---------------------------------------------------------------------
# fleet construction for serve-at-scale experiments
# ---------------------------------------------------------------------

def build_scale_fleet(
    n_machines: int = 4,
    cores_per_machine: int = 4,
    prevalence: float = 0.1,
    base_rate: float = 0.05,
    onset_days: float = 300.0,
    seed: int = 7,
) -> tuple[list[Machine], list[str]]:
    """A fleet where a ``prevalence`` fraction of cores is mercurial.

    The bad-core count is fixed at ``round(prevalence × n_cores)``
    (minimum 1) and the cores are chosen by a seed-stable permutation,
    so raising the prevalence strictly *grows* the bad-core set — the
    E17 grid compares prevalence levels against nested fleets rather
    than re-rolled ones.  Defects are dormant
    :func:`~repro.serving.campaign.copy_path_defect` stuck-bits
    (``onset_days`` in the future); the E17 chaos
    script ages the bad cores past onset mid-campaign, so the cluster
    starts clean and rots while under load.  Returns
    (machines, bad core ids).
    """
    if not 0.0 <= prevalence <= 1.0:
        raise ValueError(f"prevalence must be in [0, 1], got {prevalence}")
    root = np.random.default_rng(seed)
    n_cores = n_machines * cores_per_machine
    n_bad = max(1, int(round(prevalence * n_cores)))
    bad_slots = {int(i) for i in root.permutation(n_cores)[:n_bad]}

    def defects_for(core_id: str, index: int) -> tuple[DefectModel, ...]:
        if index not in bad_slots:
            return ()
        return copy_path_defect(core_id, base_rate, onset_days)

    return build_small_fleet(
        n_machines, cores_per_machine, root, defects_for
    )


__all__ = [
    "ScaleConfig",
    "ScaleHardening",
    "ScaleScorecard",
    "ServeScaleCampaign",
    "build_scale_fleet",
]
