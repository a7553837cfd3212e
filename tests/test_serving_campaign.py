"""Campaign-level behaviour: chaos schedule, hardening loop, determinism."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.events import EventKind
from repro.serving.campaign import (
    CampaignConfig,
    ServingCampaign,
    _draw_payloads,
    build_serving_fleet,
)
from repro.chaos import ChaosAction, ChaosKind, ChaosSchedule
from repro.serving.robustness import HardeningConfig

TICKS = 300


def _campaign(hardening, seed=3, chaos=True, onset_days=0.0):
    machines, bad_core_id = build_serving_fleet(
        onset_days=onset_days, seed=7
    )
    campaign = ServingCampaign(
        machines, CampaignConfig(ticks=TICKS), hardening, seed=seed
    )
    if chaos:
        victim = next(
            r.core_id for r in campaign.router.replicas
            if r.core_id != bad_core_id
        )
        campaign.chaos = ChaosSchedule.standard(
            bad_core_id, victim, TICKS, onset_age_days=onset_days or 400.0
        )
    return campaign, bad_core_id


class TestChaosSchedule:
    def test_due_fires_each_action_once_in_order(self):
        schedule = ChaosSchedule(
            [
                ChaosAction(10, ChaosKind.CRASH_CORE, "c0"),
                ChaosAction(5, ChaosKind.ACTIVATE_DEFECT, "c1"),
                ChaosAction(10, ChaosKind.TRAFFIC_BURST, magnitude=2.0),
            ]
        )
        assert schedule.due(4) == []
        first = schedule.due(5)
        assert [a.kind for a in first] == [ChaosKind.ACTIVATE_DEFECT]
        later = schedule.due(10)
        assert [a.kind for a in later] == [
            ChaosKind.CRASH_CORE, ChaosKind.TRAFFIC_BURST
        ]
        assert schedule.due(10) == []       # never hands an action out twice
        assert schedule.due(1000) == []

    def test_due_catches_up_over_skipped_ticks(self):
        schedule = ChaosSchedule(
            [ChaosAction(3, ChaosKind.CRASH_CORE, "c0")]
        )
        assert len(schedule.due(100)) == 1

    def test_standard_script_covers_all_fault_kinds(self):
        schedule = ChaosSchedule.standard("bad", "victim", 800)
        kinds = {a.kind for a in schedule.actions}
        assert kinds == set(ChaosKind)
        ticks = [a.at_tick for a in schedule.actions]
        assert ticks == sorted(ticks)
        assert all(0 < t < 800 for t in ticks)


class TestCampaignLoop:
    def test_unhardened_lets_corruption_escape(self):
        campaign, _ = _campaign(HardeningConfig.unhardened())
        card = campaign.run()
        assert card.corrupt_escapes > 0
        assert card.corrupt_caught == 0     # nobody is looking

    def test_hardened_catches_corruption_and_quarantines_bad_core(self):
        campaign, bad_core_id = _campaign(HardeningConfig.hardened())
        card = campaign.run()
        assert card.corrupt_escapes == 0
        assert card.corrupt_caught > 0
        assert card.breaker_trips > 0
        assert bad_core_id in card.quarantine_tick
        # The quarantined core is really out of the replica set...
        assert all(
            r.core_id != bad_core_id for r in campaign.router.replicas
        )
        # ...and the scheduler re-placed the replica on a spare, so the
        # service stays at full strength.
        assert len(campaign.router.live_replicas()) == (
            campaign.config.n_replicas
        )

    def test_breaker_trip_lands_in_event_log(self):
        campaign, bad_core_id = _campaign(HardeningConfig.hardened())
        campaign.run()
        trips = [
            e for e in campaign.events if e.kind is EventKind.BREAKER_TRIP
        ]
        assert trips
        assert any(e.core_id == bad_core_id for e in trips)
        assert all(e.application == "serving" for e in trips)

    def test_late_onset_defect_is_inert_until_chaos_activates_it(self):
        campaign, bad_core_id = _campaign(
            HardeningConfig.hardened(), onset_days=400.0
        )
        card = campaign.run()
        # Activation happens at ticks//4; every catch postdates it.
        catches = [
            e for e in campaign.events
            if e.kind is EventKind.APP_REPORT and e.core_id == bad_core_id
        ]
        assert card.corrupt_caught > 0
        assert catches
        activation_ms = (TICKS // 4) * campaign.config.tick_ms
        assert all(
            e.time_days * 86_400_000.0 >= activation_ms for e in catches
        )

    def test_availability_survives_chaos_when_hardened(self):
        campaign, _ = _campaign(HardeningConfig.hardened())
        card = campaign.run()
        assert card.availability > 0.9


class TestCampaignDeterminism:
    @staticmethod
    def _fingerprint(card):
        return (
            card.total_arrivals, card.ok, card.corrupt_escapes,
            card.corrupt_caught, card.retries, card.hedges,
            card.breaker_trips, dict(card.quarantine_tick),
            tuple(card.latencies_ms),
        )

    def test_same_seed_same_scorecard(self):
        first, _ = _campaign(HardeningConfig.hardened(), seed=11)
        second, _ = _campaign(HardeningConfig.hardened(), seed=11)
        assert self._fingerprint(first.run()) == (
            self._fingerprint(second.run())
        )

    def test_different_seed_different_traffic(self):
        first, _ = _campaign(HardeningConfig.hardened(), seed=11)
        second, _ = _campaign(HardeningConfig.hardened(), seed=12)
        assert self._fingerprint(first.run()) != (
            self._fingerprint(second.run())
        )


class TestPayloadDraw:
    """A tick's payloads come from one ``rng.bytes`` call; they must be
    the bytes, and leave the state, of one call per request."""

    @settings(max_examples=300, deadline=None)
    @given(
        payload_bytes=st.integers(0, 70), count=st.integers(0, 8),
        lead_bytes=st.integers(0, 13), seed=st.integers(0, 2**32 - 1),
    )
    def test_one_draw_equals_one_draw_per_request(
        self, payload_bytes, count, lead_bytes, seed
    ):
        # the lead draw leaves the generator on an odd 32-bit word for
        # some sizes, with half a 64-bit output buffered
        per_request = np.random.default_rng(seed)
        batched = np.random.default_rng(seed)
        per_request.bytes(lead_bytes)
        batched.bytes(lead_bytes)
        expected = [per_request.bytes(payload_bytes) for _ in range(count)]
        assert _draw_payloads(batched, count, payload_bytes) == expected
        assert batched.bit_generator.state == per_request.bit_generator.state
