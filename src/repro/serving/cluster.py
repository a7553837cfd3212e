"""The sharded serving cluster: routing, budgets, degradation, scaling.

:mod:`repro.serving.service` models one replica;
E15 puts four of them behind one :class:`RoundRobinRouter` — nowhere
near a planet-scale service.  This module is the serve-at-scale layer
E17 runs on:

- **Pluggable routers**: :class:`ConsistentHashRouter` (stable
  user→replica affinity, minimal remap when replicas join or leave)
  beside the round-robin control arm.  All routers share one ``pick``
  contract including the exclusion set the retry/breaker machinery
  relies on.
- **Per-shard state** — each :class:`Shard` owns its replica router,
  its own :class:`~repro.serving.robustness.BreakerBoard`, a request
  queue, a stale-response cache, and a degradation tier.
- **Retry budgets** — :class:`RetryBudget` is the token bucket that
  keeps retries from amplifying an incident into a retry storm: tokens
  accrue as a fraction of admitted requests and every retry spends
  one; an empty bucket refuses the retry and emits
  ``RETRY_BUDGET_EXHAUSTED``.
- **Graceful degradation** — :func:`tier_for` maps the
  cluster-wide fraction of open breakers (plus shard capacity loss)
  onto tiers: ``NORMAL → SHED → SERVE_STALE → FAIL_CLOSED``.  Shedding
  tightens admission; serve-stale answers from the last validated
  response for the user key rather than risking a suspect core;
  fail-closed refuses outright — wrong-and-confident is the one
  §1-class outcome the ladder never permits.
- **Autoscaling** — :class:`Autoscaler` watches per-shard utilization
  (EWMA-smoothed) and asks the campaign to add replicas on free cores
  (:meth:`repro.campaign.Campaign.free_cores`) or drain them, with a
  cooldown so breaker storms don't make it flap.

Everything here is deterministic: router hashes use explicit CRC/
splitmix functions (never Python's salted ``hash``), and no component
reads a clock or an unseeded RNG — the cluster is a pure function of
the request stream it is fed.
"""

from __future__ import annotations

import bisect
import enum
import zlib

from repro.serving.robustness import BreakerBoard
from repro.serving.service import ServerReplica


# ---------------------------------------------------------------------
# deterministic hashing (Python's hash() is salted per process)
# ---------------------------------------------------------------------

def stable_key_hash(key: int) -> int:
    """64-bit splitmix finalizer: deterministic across processes."""
    z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def stable_str_hash(text: str) -> int:
    """CRC32 of the UTF-8 bytes: deterministic across processes."""
    return zlib.crc32(text.encode("utf-8"))


# ---------------------------------------------------------------------
# pluggable routers
# ---------------------------------------------------------------------

class ReplicaRouter:
    """The routing contract every policy implements.

    ``pick`` honours an exclusion set (cores already tried — the retry
    policy's core-diversity rule — or cores whose breaker is open) and
    an optional ``route_key`` for affinity-aware policies.
    """

    def __init__(self, replicas: list[ServerReplica]):
        self.replicas = list(replicas)

    def live_replicas(self) -> list[ServerReplica]:
        return [r for r in self.replicas if r.available]

    def pick(
        self,
        exclude_core_ids: set[str] | None = None,
        route_key: int | None = None,
    ) -> ServerReplica | None:
        raise NotImplementedError

    def add(self, replica: ServerReplica) -> None:
        self.replicas.append(replica)

    def remove(self, replica: ServerReplica) -> None:
        self.replicas.remove(replica)

    def replace(self, old: ServerReplica, new: ServerReplica) -> None:
        self.replicas[self.replicas.index(old)] = new


class RoundRobinRouter(ReplicaRouter):
    """Cursor walk over the replica set (E15's router, E17's control arm)."""

    def __init__(self, replicas: list[ServerReplica]):
        super().__init__(replicas)
        self._cursor = 0

    def pick(
        self,
        exclude_core_ids: set[str] | None = None,
        route_key: int | None = None,
    ) -> ServerReplica | None:
        exclude = exclude_core_ids or set()
        n = len(self.replicas)
        for offset in range(n):
            replica = self.replicas[(self._cursor + offset) % n]
            if not replica.available or replica.core_id in exclude:
                continue
            self._cursor = (self._cursor + offset + 1) % n
            replica.assigned += 1
            return replica
        return None


#: ring points per replica on the consistent-hash ring
VNODES = 16


class ConsistentHashRouter(ReplicaRouter):
    """Hash-ring routing: stable affinity, minimal remap on change.

    Each replica owns :data:`VNODES` points on a 32-bit ring (hashed from
    its replica id, so placement survives process boundaries); a
    request walks clockwise from ``stable_key_hash(route_key)`` to the
    first distinct live replica not in the exclusion set.  Removing a
    replica only remaps the keys it owned — retries and stale caches
    keep their affinity through churn.
    """

    def __init__(self, replicas: list[ServerReplica]):
        self._ring: list[tuple[int, ServerReplica]] = []
        self._points: list[int] = []
        super().__init__(replicas)
        self._rebuild()

    def _rebuild(self) -> None:
        ring = []
        for replica in self.replicas:
            for vnode in range(VNODES):
                point = stable_str_hash(f"{replica.replica_id}#{vnode}")
                ring.append((point, replica))
        # replica_id tie-break keeps the ring order deterministic even
        # on the (rare) CRC collision
        ring.sort(key=lambda entry: (entry[0], entry[1].replica_id))
        self._ring = ring
        # bisected instead of the ring: a key landing on a ring point
        # would compare a replica with the probe's second field
        self._points = [point for point, _ in ring]

    def add(self, replica: ServerReplica) -> None:
        super().add(replica)
        self._rebuild()

    def remove(self, replica: ServerReplica) -> None:
        super().remove(replica)
        self._rebuild()

    def replace(self, old: ServerReplica, new: ServerReplica) -> None:
        super().replace(old, new)
        self._rebuild()

    def pick(
        self,
        exclude_core_ids: set[str] | None = None,
        route_key: int | None = None,
    ) -> ServerReplica | None:
        if not self._ring:
            return None
        exclude = exclude_core_ids or set()
        point = stable_key_hash(route_key or 0) & 0xFFFFFFFF
        start = bisect.bisect_left(self._points, point) % len(self._ring)
        seen: set[str] = set()
        for offset in range(len(self._ring)):
            _, replica = self._ring[(start + offset) % len(self._ring)]
            if replica.replica_id in seen:
                continue
            seen.add(replica.replica_id)
            if replica.available and replica.core_id not in exclude:
                replica.assigned += 1
                return replica
        return None


#: router policy name → constructor (the E17 config knob)
ROUTER_POLICIES: dict[str, type[ReplicaRouter]] = {
    "round-robin": RoundRobinRouter,
    "consistent-hash": ConsistentHashRouter,
}


# ---------------------------------------------------------------------
# retry budgets
# ---------------------------------------------------------------------

#: retry-budget tokens earned per admitted request (0.1 = retries may
#: amplify load by at most ~10% in steady state)
RETRY_BUDGET_RATIO = 0.1
#: bucket capacity (and the initial balance), so a short incident can
#: still retry aggressively
RETRY_BUDGET_BURST = 10.0


class RetryBudget:
    """The anti-retry-storm token bucket (one per shard)."""

    def __init__(self):
        self.tokens = RETRY_BUDGET_BURST
        self.spent = 0
        self.exhausted = 0

    def deposit(self, admitted: int = 1) -> None:
        """Earn tokens from admitted first attempts."""
        self.tokens = min(
            RETRY_BUDGET_BURST, self.tokens + RETRY_BUDGET_RATIO * admitted
        )

    def try_spend(self) -> bool:
        """Spend one token for a retry; False when the bucket is dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.exhausted += 1
        return False


# ---------------------------------------------------------------------
# graceful degradation tiers
# ---------------------------------------------------------------------

class DegradationTier(enum.Enum):
    """shed → serve-stale → fail-closed, in escalating order."""

    NORMAL = "normal"
    SHED = "shed"
    SERVE_STALE = "serve_stale"
    FAIL_CLOSED = "fail_closed"


#: escalation order for comparisons (enum members are not ordered)
TIER_ORDER: dict[DegradationTier, int] = {
    DegradationTier.NORMAL: 0,
    DegradationTier.SHED: 1,
    DegradationTier.SERVE_STALE: 2,
    DegradationTier.FAIL_CLOSED: 3,
}


# Cluster distress (fraction of breakers open, capacity lost) maps onto
# a degradation tier; the thresholds are inclusive lower bounds.
SHED_AT = 0.25
SERVE_STALE_AT = 0.5
FAIL_CLOSED_AT = 0.9
#: admission queue factor while in SHED or worse (vs the shedder's
#: ``MAX_QUEUE_FACTOR`` in NORMAL)
SHED_QUEUE_FACTOR = 1.0


def tier_for(distress: float) -> DegradationTier:
    """The degradation tier a shard's distress grades to."""
    if distress >= FAIL_CLOSED_AT:
        return DegradationTier.FAIL_CLOSED
    if distress >= SERVE_STALE_AT:
        return DegradationTier.SERVE_STALE
    if distress >= SHED_AT:
        return DegradationTier.SHED
    return DegradationTier.NORMAL


# ---------------------------------------------------------------------
# autoscaling
# ---------------------------------------------------------------------

# Utilization-band autoscaling with cooldown.  Utilization is admitted
# work over live capacity, EWMA-smoothed with ``AUTOSCALE_SMOOTHING``; a
# shard above ``SCALE_UP_AT`` asks for one more replica, below
# ``SCALE_DOWN_AT`` drains one, never leaving the
# ``[MIN_REPLICAS, MAX_REPLICAS]`` band, and never acting twice within
# ``COOLDOWN_TICKS``.
SCALE_UP_AT = 0.85
SCALE_DOWN_AT = 0.3
MIN_REPLICAS = 2
MAX_REPLICAS = 6
COOLDOWN_TICKS = 25
AUTOSCALE_SMOOTHING = 0.2


class Autoscaler:
    """Per-shard scale decisions; the campaign executes them."""

    def __init__(self):
        self._last_action_tick: dict[str, int] = {}
        self.scale_ups = 0
        self.scale_downs = 0

    def decide(self, shard: "Shard", tick: int) -> int:
        """+1 (add a replica), -1 (drain one), or 0 (hold)."""
        last = self._last_action_tick.get(shard.shard_id)
        if last is not None and tick - last < COOLDOWN_TICKS:
            return 0
        n_live = len(shard.router.live_replicas())
        if shard.utilization >= SCALE_UP_AT and n_live < MAX_REPLICAS:
            self._last_action_tick[shard.shard_id] = tick
            self.scale_ups += 1
            return 1
        if shard.utilization <= SCALE_DOWN_AT and n_live > MIN_REPLICAS:
            self._last_action_tick[shard.shard_id] = tick
            self.scale_downs += 1
            return -1
        return 0


# ---------------------------------------------------------------------
# shards and the cluster
# ---------------------------------------------------------------------

class Shard:
    """One shard: replicas, breaker board, queue, stale cache, tier."""

    def __init__(
        self,
        shard_id: str,
        router: ReplicaRouter,
        breakers: bool,
        event_log=None,
        retry_budget: bool = False,
    ):
        self.shard_id = shard_id
        self.router = router
        self.breakers = BreakerBoard(event_log) if breakers else None
        self.budget = RetryBudget() if retry_budget else None
        self.queue: list = []
        #: route_key → last validated OK payload (the serve-stale source)
        self.stale_cache: dict[int, bytes] = {}
        self.tier = DegradationTier.NORMAL
        self.utilization = 0.0
        #: replicas the baseline placement put here (autoscale floor ref)
        self.configured_replicas = len(router.replicas)

    def note_utilization(self, admitted: int, capacity: int) -> None:
        """EWMA-update the utilization estimate for the autoscaler."""
        instant = admitted / capacity if capacity > 0 else 1.0
        alpha = AUTOSCALE_SMOOTHING
        self.utilization = (1 - alpha) * self.utilization + alpha * instant

    def open_breaker_fraction(self, now_ms: float) -> float:
        """Fraction of this shard's replica cores behind open breakers."""
        if self.breakers is None or not self.router.replicas:
            return 0.0
        open_ids = self.breakers.open_core_ids(now_ms)
        blocked = sum(
            1 for r in self.router.replicas if r.core_id in open_ids
        )
        return blocked / len(self.router.replicas)

    def capacity_loss_fraction(self) -> float:
        """Fraction of configured replica slots currently dark."""
        if self.configured_replicas == 0:
            return 0.0
        live = len(self.router.live_replicas())
        return max(0.0, 1.0 - live / self.configured_replicas)


class ShardedCluster:
    """All shards of one service, plus cluster-wide distress tracking."""

    def __init__(self, shards: list[Shard]):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.shards = list(shards)

    def shard_for(self, route_key: int) -> Shard:
        """Deterministic key → shard assignment (stable across runs)."""
        return self.shards[stable_key_hash(route_key) % len(self.shards)]

    def replicas(self) -> list[ServerReplica]:
        return [r for shard in self.shards for r in shard.router.replicas]

    def open_breaker_fraction(self, now_ms: float) -> float:
        """Cluster-wide fraction of replica cores behind open breakers."""
        total = 0
        blocked = 0
        for shard in self.shards:
            if shard.breakers is None:
                total += len(shard.router.replicas)
                continue
            open_ids = shard.breakers.open_core_ids(now_ms)
            for replica in shard.router.replicas:
                total += 1
                if replica.core_id in open_ids:
                    blocked += 1
        return blocked / total if total else 0.0

    def distress(self, shard: Shard, now_ms: float) -> float:
        """What the degradation policy grades: the worst of the
        cluster-wide breaker picture and this shard's own state."""
        return max(
            self.open_breaker_fraction(now_ms),
            shard.open_breaker_fraction(now_ms),
            shard.capacity_loss_fraction(),
        )


__all__ = [
    "Autoscaler",
    "ConsistentHashRouter",
    "DegradationTier",
    "ROUTER_POLICIES",
    "ReplicaRouter",
    "RetryBudget",
    "Shard",
    "RoundRobinRouter",
    "ShardedCluster",
    "TIER_ORDER",
    "stable_key_hash",
    "tier_for",
    "stable_str_hash",
]
