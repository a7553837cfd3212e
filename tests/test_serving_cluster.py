"""Cluster-layer units: routers, retry budgets, tiers, autoscaling."""

import zlib

import numpy as np
import pytest

from repro.serving.cluster import (
    ROUTER_POLICIES,
    TIER_ORDER,
    AUTOSCALE_SMOOTHING,
    COOLDOWN_TICKS,
    MAX_REPLICAS,
    MIN_REPLICAS,
    RETRY_BUDGET_BURST,
    RETRY_BUDGET_RATIO,
    SCALE_DOWN_AT,
    SCALE_UP_AT,
    Autoscaler,
    ConsistentHashRouter,
    DegradationTier,
    RetryBudget,
    RoundRobinRouter,
    Shard,
    ShardedCluster,
    stable_key_hash,
    stable_str_hash,
    tier_for,
)
from repro.serving.robustness import BREAKER_FAILURE_THRESHOLD
from repro.serving.service import ServerReplica
from repro.silicon.core import Core


def _replica(replica_id, seed=0):
    core = Core(replica_id, rng=np.random.default_rng(seed))
    return ServerReplica(replica_id, core)


def _replicas(n, prefix="s0/r"):
    return [_replica(f"{prefix}{i}", seed=i) for i in range(n)]


class TestStableHashes:
    def test_key_hash_is_deterministic_and_spreads(self):
        assert stable_key_hash(42) == stable_key_hash(42)
        assert len({stable_key_hash(k) for k in range(200)}) == 200

    def test_str_hash_is_plain_crc32(self):
        # pinned to zlib so ring placement survives process boundaries
        assert stable_str_hash("s0/r0#3") == zlib.crc32(b"s0/r0#3")

    def test_neither_uses_pythons_salted_hash(self):
        # hash("x") varies per process; these two are pinned forever
        assert stable_key_hash(7) == 7191089600892374487
        assert stable_str_hash("abc") == 891568578


class TestRouterRegistry:
    def test_both_policies_are_registered(self):
        assert set(ROUTER_POLICIES) == {"round-robin", "consistent-hash"}
        for cls in ROUTER_POLICIES.values():
            router = cls(_replicas(2))
            assert router.pick(route_key=1) is not None


class TestShardRoundRobinRouter:
    def test_cycles_and_counts_assignments(self):
        router = RoundRobinRouter(_replicas(3))
        picks = [router.pick().replica_id for _ in range(6)]
        assert picks == ["s0/r0", "s0/r1", "s0/r2"] * 2
        assert all(r.assigned == 2 for r in router.replicas)

    def test_returns_none_when_everyone_is_excluded(self):
        router = RoundRobinRouter(_replicas(2))
        assert router.pick(exclude_core_ids={"s0/r0", "s0/r1"}) is None


_MASK64 = (1 << 64) - 1


def _unxorshift(z, shift):
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _key_hashing_to(low32):
    """A route key whose ``stable_key_hash`` has low 32 bits ``low32``:
    the splitmix finalizer run backwards from ``low32``."""
    z = _unxorshift(low32, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & _MASK64


class TestConsistentHashRouter:
    def test_a_key_landing_on_a_ring_point_goes_to_that_point(self):
        router = ConsistentHashRouter(_replicas(4))
        for index in (0, 17, 63):
            point = stable_str_hash(f"s0/r{index % 4}#{index // 4}")
            key = _key_hashing_to(point)
            assert stable_key_hash(key) & 0xFFFFFFFF == point
            assert router.pick(route_key=key).replica_id == f"s0/r{index % 4}"

    def test_same_key_always_lands_on_the_same_replica(self):
        router = ConsistentHashRouter(_replicas(4))
        owners = {router.pick(route_key=77).replica_id for _ in range(10)}
        assert len(owners) == 1

    def test_exclusion_walks_to_the_next_distinct_replica(self):
        router = ConsistentHashRouter(_replicas(4))
        primary = router.pick(route_key=77)
        fallback = router.pick(
            exclude_core_ids={primary.core_id}, route_key=77
        )
        assert fallback is not None
        assert fallback.replica_id != primary.replica_id
        # the fallback is stable too
        again = router.pick(
            exclude_core_ids={primary.core_id}, route_key=77
        )
        assert again.replica_id == fallback.replica_id

    def test_fully_excluded_ring_returns_none(self):
        router = ConsistentHashRouter(_replicas(2))
        assert router.pick(
            exclude_core_ids={"s0/r0", "s0/r1"}, route_key=1
        ) is None

    def test_offline_replicas_are_skipped(self):
        router = ConsistentHashRouter(_replicas(3))
        owner = router.pick(route_key=5)
        owner.core.set_online(False)
        rerouted = router.pick(route_key=5)
        assert rerouted is not None
        assert rerouted.replica_id != owner.replica_id

    def test_removal_only_remaps_the_departed_replicas_keys(self):
        keys = list(range(300))
        router = ConsistentHashRouter(_replicas(5))
        before = {k: router.pick(route_key=k).replica_id for k in keys}
        victim = next(
            r for r in router.replicas if r.replica_id == "s0/r2"
        )
        router.remove(victim)
        after = {k: router.pick(route_key=k).replica_id for k in keys}
        for k in keys:
            if before[k] != "s0/r2":
                assert after[k] == before[k]      # survivors keep their keys
            else:
                assert after[k] != "s0/r2"        # orphans land elsewhere

    def test_adding_a_replica_gives_it_some_keys(self):
        router = ConsistentHashRouter(_replicas(3))
        router.add(_replica("s0/r9", seed=9))
        owners = {
            router.pick(route_key=k).replica_id for k in range(500)
        }
        assert "s0/r9" in owners


class TestRetryBudget:
    def test_config_validation(self):
        assert RETRY_BUDGET_RATIO >= 0
        assert RETRY_BUDGET_BURST >= 1  # a full bucket affords a retry

    def test_starts_with_a_full_burst(self):
        budget = RetryBudget()
        burst = int(RETRY_BUDGET_BURST)
        for _ in range(burst):
            assert budget.try_spend()
        assert not budget.try_spend()             # bucket dry
        assert budget.spent == burst
        assert budget.exhausted == 1

    def test_deposits_accrue_at_the_configured_ratio(self):
        budget = RetryBudget()
        for _ in range(int(RETRY_BUDGET_BURST)):
            budget.try_spend()
        assert not budget.try_spend()
        # earns exactly one token
        budget.deposit(admitted=round(1 / RETRY_BUDGET_RATIO))
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_deposits_cap_at_the_burst(self):
        budget = RetryBudget()
        budget.deposit(admitted=1000)
        assert budget.tokens == RETRY_BUDGET_BURST


class TestDegradationPolicy:
    def test_thresholds_are_inclusive_lower_bounds(self):
        assert tier_for(0.0) is DegradationTier.NORMAL
        assert tier_for(0.2499) is DegradationTier.NORMAL
        assert tier_for(0.25) is DegradationTier.SHED
        assert tier_for(0.4999) is DegradationTier.SHED
        assert tier_for(0.5) is DegradationTier.SERVE_STALE
        assert tier_for(0.8999) is DegradationTier.SERVE_STALE
        assert tier_for(0.9) is DegradationTier.FAIL_CLOSED
        assert tier_for(1.0) is DegradationTier.FAIL_CLOSED

    def test_tier_order_escalates_along_the_ladder(self):
        ladder = [
            DegradationTier.NORMAL, DegradationTier.SHED,
            DegradationTier.SERVE_STALE, DegradationTier.FAIL_CLOSED,
        ]
        assert [TIER_ORDER[t] for t in ladder] == [0, 1, 2, 3]


def _shard(n_replicas=3, breakers=False, **kwargs):
    return Shard(
        "shard/0", RoundRobinRouter(_replicas(n_replicas)),
        breakers, **kwargs,
    )


class TestAutoscaler:
    def _hot_shard(self, n=3):
        shard = _shard(n)
        shard.utilization = 0.95
        return shard

    def test_scales_up_on_high_utilization(self):
        scaler = Autoscaler()
        assert scaler.decide(self._hot_shard(), tick=0) == 1
        assert scaler.scale_ups == 1

    def test_cooldown_blocks_back_to_back_actions(self):
        scaler = Autoscaler()
        shard = self._hot_shard()
        assert scaler.decide(shard, tick=0) == 1
        assert scaler.decide(shard, tick=10) == 0
        assert scaler.decide(shard, tick=COOLDOWN_TICKS - 1) == 0
        assert scaler.decide(shard, tick=COOLDOWN_TICKS) == 1

    def test_never_scales_past_the_band(self):
        scaler = Autoscaler()
        assert scaler.decide(self._hot_shard(n=MAX_REPLICAS), tick=0) == 0
        cold = _shard(MIN_REPLICAS)
        cold.utilization = 0.05
        assert scaler.decide(cold, tick=0) == 0

    def test_scales_down_when_idle(self):
        scaler = Autoscaler()
        shard = _shard(MIN_REPLICAS + 2)
        shard.utilization = 0.1
        assert scaler.decide(shard, tick=0) == -1
        assert scaler.scale_downs == 1

    def test_config_validation(self):
        assert 0 <= SCALE_DOWN_AT < SCALE_UP_AT
        assert 1 <= MIN_REPLICAS <= MAX_REPLICAS
        assert 0 < AUTOSCALE_SMOOTHING <= 1


class TestShard:
    def test_utilization_is_ewma_smoothed(self):
        alpha = AUTOSCALE_SMOOTHING
        shard = _shard()
        shard.note_utilization(admitted=6, capacity=6)
        assert shard.utilization == pytest.approx(alpha)
        shard.note_utilization(admitted=6, capacity=6)
        assert shard.utilization == pytest.approx(alpha + (1 - alpha) * alpha)

    def test_capacity_loss_tracks_dark_replicas(self):
        shard = _shard(3)
        assert shard.capacity_loss_fraction() == 0.0
        shard.router.replicas[0].core.set_online(False)
        assert shard.capacity_loss_fraction() == pytest.approx(1 / 3)

    def test_open_breaker_fraction_counts_blocked_cores(self):
        shard = _shard(3, breakers=True)
        assert shard.open_breaker_fraction(0.0) == 0.0
        for t in range(BREAKER_FAILURE_THRESHOLD):
            shard.breakers.record_failure("s0/r1", 1.0 + t, "checksum mismatch")
        assert shard.open_breaker_fraction(10.0) == pytest.approx(1 / 3)

    def test_no_breakers_means_no_breaker_distress(self):
        shard = _shard(3, breakers=False)
        assert shard.breakers is None
        assert shard.open_breaker_fraction(0.0) == 0.0


class TestShardedCluster:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedCluster([])

    def test_key_to_shard_assignment_is_stable_and_covers_all(self):
        shards = [
            Shard(f"shard/{i}",
                  RoundRobinRouter(_replicas(2, prefix=f"s{i}/r")),
                  False)
            for i in range(3)
        ]
        cluster = ShardedCluster(shards)
        first = {k: cluster.shard_for(k).shard_id for k in range(100)}
        again = {k: cluster.shard_for(k).shard_id for k in range(100)}
        assert first == again
        assert set(first.values()) == {"shard/0", "shard/1", "shard/2"}

    def test_distress_is_the_worst_of_the_three_signals(self):
        shards = [
            Shard(f"shard/{i}",
                  RoundRobinRouter(_replicas(2, prefix=f"s{i}/r")),
                  False)
            for i in range(2)
        ]
        cluster = ShardedCluster(shards)
        assert cluster.distress(shards[0], 0.0) == 0.0
        # kill one of shard 0's two replicas: 50% capacity loss there,
        # no breaker signal anywhere
        shards[0].router.replicas[0].core.set_online(False)
        assert cluster.distress(shards[0], 0.0) == pytest.approx(0.5)
        assert cluster.distress(shards[1], 0.0) == 0.0
