"""E17 end-to-end: the grid, degradation semantics, worker invariance."""

import json

import pytest

from repro.analysis.experiments import run_serve_at_scale
from repro.chaos import ChaosKind, ChaosSchedule
from repro.serving import (
    DegradationTier,
    ScaleConfig,
    ScaleHardening,
    ServeScaleCampaign,
    build_scale_fleet,
)
from repro.serving.service import Request, ResponseStatus

TICKS = 150


def _campaign(hardening, ticks=TICKS, prevalence=0.2, seed=3):
    machines, bad_core_ids = build_scale_fleet(
        prevalence=prevalence, seed=7
    )
    campaign = ServeScaleCampaign(
        machines, ScaleConfig(ticks=ticks), hardening, seed=seed
    )
    shard_loss = [
        r.core_id for r in campaign.cluster.shards[0].router.replicas
    ]
    storm = [
        r.core_id for r in campaign.cluster.shards[1].router.replicas
        if r.core_id not in bad_core_ids
    ][:2]
    campaign.chaos = ChaosSchedule.serve_scale(
        bad_core_ids, shard_loss, storm, ticks
    )
    return campaign, bad_core_ids


class TestScaleFleet:
    def test_bad_core_count_scales_with_prevalence(self):
        _, low = build_scale_fleet(prevalence=0.1, seed=7)
        _, mid = build_scale_fleet(prevalence=0.2, seed=7)
        _, high = build_scale_fleet(prevalence=0.4, seed=7)
        assert len(low) == 2 and len(mid) == 3 and len(high) == 6

    def test_higher_prevalence_strictly_grows_the_bad_set(self):
        # nested fleets: the grid compares prevalence levels against
        # supersets, never re-rolled populations
        _, low = build_scale_fleet(prevalence=0.1, seed=7)
        _, high = build_scale_fleet(prevalence=0.4, seed=7)
        assert set(low) < set(high)

    def test_at_least_one_bad_core_even_at_tiny_prevalence(self):
        _, bad = build_scale_fleet(prevalence=0.001, seed=7)
        assert len(bad) == 1

    @pytest.mark.parametrize("prevalence", [1.5, -0.2, float("nan")])
    def test_prevalence_outside_unit_interval_rejected(self, prevalence):
        with pytest.raises(ValueError, match="prevalence"):
            build_scale_fleet(prevalence=prevalence)


class TestScaleHardening:
    def test_baseline_turns_everything_off(self):
        arm = ScaleHardening.baseline()
        assert not arm.validate
        for knob in ("retry", "retry_budget", "hedge", "breaker",
                     "shed", "degradation", "autoscale"):
            assert getattr(arm, knob) is False
        assert arm.router_policy == "round-robin"

    def test_middle_rung_has_budgeted_retries_but_no_hedging(self):
        arm = ScaleHardening.retries_breakers()
        assert arm.validate
        assert arm.retry and arm.retry_budget
        assert arm.breaker
        assert not arm.hedge and not arm.degradation
        assert not arm.autoscale

    def test_full_turns_everything_on(self):
        arm = ScaleHardening.full()
        for knob in ("retry", "retry_budget", "hedge", "breaker",
                     "shed", "degradation", "autoscale"):
            assert getattr(arm, knob) is True

    def test_unknown_router_policy_is_rejected(self):
        with pytest.raises(ValueError):
            ScaleHardening(router_policy="random")


class TestServeScaleCampaign:
    def test_full_hardening_beats_the_baseline_on_escapes(self):
        naive, _ = _campaign(ScaleHardening.baseline())
        full, _ = _campaign(ScaleHardening.full())
        naive_card = naive.run()
        full_card = full.run()
        assert naive_card.corrupt_escapes > 0
        assert full_card.corrupt_escapes < naive_card.corrupt_escapes
        assert full_card.corrupt_caught > 0
        assert full_card.breaker_trips > 0

    def test_hedges_fire_and_are_logged(self):
        full, _ = _campaign(ScaleHardening.full())
        card = full.run()
        assert card.hedges > 0
        assert card.hedges_won <= card.hedges
        from repro.core.events import EventKind
        fired = [
            e for e in full.events if e.kind is EventKind.HEDGE_FIRED
        ]
        assert len(fired) == card.hedges

    def test_same_seed_is_byte_identical(self):
        first, _ = _campaign(ScaleHardening.full(), seed=11)
        second, _ = _campaign(ScaleHardening.full(), seed=11)
        a = json.dumps(first.run().to_json(), sort_keys=True)
        b = json.dumps(second.run().to_json(), sort_keys=True)
        assert a == b

    def test_serve_stale_tier_answers_from_cache_without_a_core(self):
        campaign, _ = _campaign(ScaleHardening.full())
        shard = campaign.cluster.shards[0]
        shard.tier = DegradationTier.SERVE_STALE
        shard.stale_cache[123] = b"cached-bytes"
        request = Request(
            request_id=0, payload=b"fresh-bytes!", deadline_ms=30.0,
            route_key=123, cohort="interactive",
        )
        response = campaign._serve_one(shard, request, tick=0, now_ms=0.0)
        assert response.stale
        assert response.payload == b"cached-bytes"
        assert campaign.scorecard.stale_served == 1
        # labelled degradation is not silent corruption, nor fresh OK
        campaign._score(request, response)
        assert campaign.scorecard.ok == 0
        assert campaign.scorecard.corrupt_escapes == 0

    def test_stale_cache_miss_falls_through_to_a_live_attempt(self):
        campaign, _ = _campaign(ScaleHardening.full())
        shard = campaign.cluster.shards[0]
        shard.tier = DegradationTier.SERVE_STALE
        request = Request(
            request_id=0, payload=b"fresh-bytes!", deadline_ms=30.0,
            route_key=999_999, cohort="interactive",
        )
        response = campaign._serve_one(shard, request, tick=0, now_ms=0.0)
        assert not response.stale
        assert response.status is ResponseStatus.OK

    def test_fail_closed_refuses_rather_than_risking_wrong_bytes(self):
        campaign, _ = _campaign(ScaleHardening.full(), ticks=100)
        for shard in campaign.cluster.shards:
            shard.tier = DegradationTier.FAIL_CLOSED
        # pin the ladder shut: distress stays artificially maximal
        campaign.cluster.distress = lambda shard, now_ms: 1.0
        card = campaign.run()
        assert card.fail_closed > 0
        assert card.ok == 0
        assert card.corrupt_escapes == 0


class TestServeScaleChaos:
    def test_serve_scale_script_covers_the_scripted_faults(self):
        schedule = ChaosSchedule.serve_scale(
            ["bad0", "bad1"], ["s0a", "s0b"], ["v0", "v1"], 600
        )
        kinds = [a.kind for a in schedule.actions]
        assert kinds.count(ChaosKind.ACTIVATE_DEFECT) == 2
        assert kinds.count(ChaosKind.CRASH_CORE) == 2   # the whole shard
        assert kinds.count(ChaosKind.MACHINE_CHECK_BURST) == 2
        assert ChaosKind.TRAFFIC_BURST in kinds
        ticks = [a.at_tick for a in schedule.actions]
        assert ticks == sorted(ticks)
        assert all(0 < t < 600 for t in ticks)


class TestServeAtScaleGrid:
    def test_grid_shape_and_hardening_wins(self):
        result = run_serve_at_scale(
            ticks=120, prevalences=(0.1, 0.4), seed=0, workers=1
        )
        assert result["prevalences"] == ["0.1", "0.4"]
        assert result["arms"] == ["baseline", "retries_breakers", "full"]
        for key in result["prevalences"]:
            cards = result["grid"][key]
            assert set(cards) == set(result["arms"])
            comp = result["comparisons"][key]
            assert comp["escape_rate_full"] <= comp["escape_rate_baseline"]
            assert comp["n_bad_cores"] >= 1
        assert "E17" in result["rendered"]
