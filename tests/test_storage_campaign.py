"""Storage campaign behaviour: chaos script, protection stacks, determinism."""

import json

import pytest

from repro.campaign import build_small_fleet
from repro.chaos import ChaosKind, ChaosSchedule
from repro.core.events import EventKind
from repro.silicon.aging import AgingProfile
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    build_storage_fleet,
)
from repro.storage.antientropy import SyncReport, build_merkle_tree
from repro.storage.campaign import STORAGE_EVENT_KINDS

TICKS = 200
ONSET_AGE_DAYS = 400.0


def _campaign(protections, ticks=TICKS, seed=3, fleet=None):
    machines, bad_core_id = fleet or build_storage_fleet(
        onset_days=ONSET_AGE_DAYS, seed=7
    )
    campaign = StorageCampaign(
        machines, protections, StorageCampaignConfig(ticks=ticks), seed=seed
    )
    victim = next(
        replica.core_id for replica in campaign.store.replicas
        if replica.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.storage_standard(
        bad_core_id, victim, ticks, onset_age_days=ONSET_AGE_DAYS
    )
    return campaign, bad_core_id


class TestStorageChaosSchedule:
    def test_storage_standard_covers_the_scripted_faults(self):
        schedule = ChaosSchedule.storage_standard("bad", "victim", 600)
        kinds = [action.kind for action in schedule.actions]
        assert kinds.count(ChaosKind.CRASH_CORE) == 2
        assert ChaosKind.ACTIVATE_DEFECT in kinds
        assert ChaosKind.MACHINE_CHECK_BURST in kinds
        assert ChaosKind.TRAFFIC_BURST in kinds
        ticks = [action.at_tick for action in schedule.actions]
        assert ticks == sorted(ticks)
        assert all(action.at_tick < 600 for action in schedule.actions)


class TestStorageCampaign:
    def test_protected_store_beats_the_trusting_baseline(self):
        naive, bad_core_id = _campaign(StorageProtections.unprotected())
        protected, _ = _campaign(StorageProtections.protected())
        naive_card = naive.run()
        protected_card = protected.run()

        # The baseline serves corrupt bytes and permanently loses keys;
        # the full stack does neither.
        assert naive_card.escape_rate > 0.0
        assert naive_card.unrecoverable_keys > 0
        assert protected_card.escape_rate == 0.0
        assert protected_card.unrecoverable_keys == 0
        assert protected_card.read_availability >= naive_card.read_availability

        # Storage integrity signals exist, are attributed to the bad
        # core, and drive its quarantine; the baseline has no integrity
        # signal at all, so it never fingers the defective core.
        storage_events = [
            e for e in protected.events if e.kind in STORAGE_EVENT_KINDS
        ]
        assert storage_events
        assert any(e.core_id == bad_core_id for e in storage_events)
        assert bad_core_id in protected_card.quarantine_tick
        assert bad_core_id not in naive_card.quarantine_tick
        assert not any(
            e.kind in STORAGE_EVENT_KINDS for e in naive.events
        )

    def test_verify_after_encrypt_gates_the_unrecoverable_incident(self):
        # Drop only the §5.2 defence: mis-encrypted records replicate
        # cleanly (every replica holds the same wrong ciphertext, so
        # quorums agree) and some keys become unrecoverable.
        no_verify, _ = _campaign(StorageProtections.no_encrypt_verify())
        card = no_verify.run()
        assert card.unrecoverable_keys > 0

    def test_quarantine_replacement_keeps_the_store_replicated(self):
        protected, bad_core_id = _campaign(StorageProtections.protected())
        card = protected.run()
        assert bad_core_id in card.quarantine_tick
        replica_cores = {r.core_id for r in protected.store.replicas}
        assert bad_core_id not in replica_cores
        assert len(replica_cores) == 3
        # The replacement replica started empty and was backfilled.
        assert card.backfills > 0

    def test_fixed_seed_reproduces_byte_identical_results(self):
        first, _ = _campaign(StorageProtections.protected(), ticks=150)
        second, _ = _campaign(StorageProtections.protected(), ticks=150)
        card_a = first.run()
        card_b = second.run()
        json_a = json.dumps(card_a.to_json(), sort_keys=True)
        json_b = json.dumps(card_b.to_json(), sort_keys=True)
        assert json_a == json_b
        events_a = [
            (e.time_days, e.core_id, e.kind, e.detail) for e in first.events
        ]
        events_b = [
            (e.time_days, e.core_id, e.kind, e.detail) for e in second.events
        ]
        assert events_a == events_b

    def test_scorecard_json_is_strict_and_complete(self):
        protected, _ = _campaign(StorageProtections.protected(), ticks=150)
        payload = protected.run().to_json()
        parsed = json.loads(json.dumps(payload, allow_nan=False))
        for field in (
            "escape_rate", "unrecoverable_loss_rate", "read_availability",
            "write_amplification", "mean_repair_latency_ms",
            "wal_corrupt_records", "quarantine_tick",
        ):
            assert field in parsed

    def test_generic_weights_never_beat_dedicated_ones(self):
        dedicated, bad_core_id = _campaign(StorageProtections.protected())
        generic, _ = _campaign(StorageProtections.generic_weights())
        card_d = dedicated.run()
        card_g = generic.run()
        assert bad_core_id in card_d.quarantine_tick
        assert bad_core_id in card_g.quarantine_tick
        assert (
            card_d.quarantine_tick[bad_core_id]
            <= card_g.quarantine_tick[bad_core_id]
        )

    def test_machine_check_burst_alone_cannot_frame_a_healthy_core(self):
        # In the baseline the only signal is the chaos MCE burst on the
        # innocent victim: whatever the policy does with it, the actual
        # corruptor is never the one quarantined.
        naive, bad_core_id = _campaign(StorageProtections.unprotected())
        card = naive.run()
        assert bad_core_id not in card.quarantine_tick
        burst_mces = [
            e for e in naive.events if e.kind is EventKind.MACHINE_CHECK
        ]
        assert burst_mces


class TestCallCounts:
    """Counts repeat exactly where wall-clock does not: each pins one
    piece of per-tick work that must stay off the campaign's pass."""

    def test_golden_mix_is_reached_from_the_staged_path_only(self, monkeypatch):
        """With no crypto-unit defect in the fleet every AES block is a
        table kernel; ``_golden_mix`` serves the staged fallback alone."""
        from repro.workloads import crypto

        def load_store_defect_only(core_id, index):
            if index != 1:
                return ()
            return (StuckBitDefect(
                f"defect/{core_id}/stuck", bit=21, base_rate=0.05,
                unit=FunctionalUnit.LOAD_STORE,
                aging=AgingProfile(onset_days=ONSET_AGE_DAYS),
            ),)

        machines, bad = build_small_fleet(
            4, 4, 7, load_store_defect_only
        )
        calls = []
        golden_mix = crypto._golden_mix
        monkeypatch.setattr(
            crypto, "_golden_mix",
            lambda state, rows: calls.append(1) or golden_mix(state, rows),
        )
        campaign, _ = _campaign(
            StorageProtections.protected(), fleet=(machines, bad[0])
        )
        card = campaign.run()
        assert card.keys_written > 0 and card.reads_ok > 0
        assert calls == []

    def test_monitor_on_a_converged_store_leaves_the_divergence_clock_alone(self):
        class Untouchable(dict):
            def _refuse(self, *args):
                raise AssertionError("divergence clock mutated")

            pop = setdefault = __setitem__ = __delitem__ = _refuse

        machines, _ = build_storage_fleet(bad_machine=-1)  # all healthy
        campaign = StorageCampaign(
            machines, StorageProtections.protected(),
            StorageCampaignConfig(ticks=20), seed=3,
        )
        card = campaign.run()
        assert card.keys_written > 0 and card.lasting_divergence == 0
        campaign._divergent_since = Untouchable()
        campaign._monitor(20)


#: every preset of the defence stack
ALL_PROTECTIONS = (
    StorageProtections.protected,
    StorageProtections.unprotected,
    StorageProtections.quorum_only,
    StorageProtections.no_encrypt_verify,
    StorageProtections.generic_weights,
)


def _full_scan_monitor(campaign, divergent, tick):
    """The divergence watcher as one compare per acked key per replica."""
    for replica in campaign.store.replicas:
        if not replica.available:
            continue
        for key, expected in campaign._truth_payload.items():
            if replica.table.get(key) != expected:
                divergent.setdefault((replica.replica_id, key), tick)
            else:
                divergent.pop((replica.replica_id, key), None)


@pytest.mark.usefixtures("kernels_on")
class TestShortcutsMatchTheFullScans:
    """The monitor's and anti-entropy's shortcuts sit above the cores;
    the per-op reference path would only make these runs slower."""

    def test_monitor_stops_the_clocks_of_a_replica_that_converged(self):
        """A replica whose copies all match again, with no repair hook to
        stop its clocks, has them stopped; other replicas' stay."""
        machines, _ = build_storage_fleet(bad_machine=-1)  # all healthy
        campaign = StorageCampaign(
            machines, StorageProtections.protected(),
            StorageCampaignConfig(ticks=20), seed=3,
        )
        campaign.run()
        replica_id = campaign.store.replicas[0].replica_id
        keys = list(campaign._truth_payload)
        first, last = keys[0], keys[-1]
        campaign._divergent_since = {
            (replica_id, first): 4, ("store/retired", first): 5,
            (replica_id, last): 6,
        }
        campaign._monitor(20)
        assert campaign._divergent_since == {("store/retired", first): 5}

    def test_monitor_and_sync_round_match_full_scan_oracles_tick_by_tick(self):
        seen = {"diverged": 0, "converged": 0, "roots_differ": 0,
                "roots_match": 0}
        for protections in ALL_PROTECTIONS:
            for seed in (3, 4, 5):
                campaign, _ = _campaign(protections(), seed=seed)
                monitor = campaign._monitor

                def checked_monitor(tick, campaign=campaign, monitor=monitor):
                    want = dict(campaign._divergent_since)
                    _full_scan_monitor(campaign, want, tick)
                    seen["diverged" if want else "converged"] += 1
                    monitor(tick)
                    assert list(campaign._divergent_since.items()) == \
                        list(want.items()), (protections, seed, tick)

                campaign._monitor = checked_monitor
                if campaign.antientropy is not None:
                    sync_round = campaign.antientropy.sync_round

                    def checked_sync(campaign=campaign, sync_round=sync_round):
                        replicas = [
                            r for r in campaign.store.replicas if r.available
                        ]
                        tables = [dict(r.table) for r in replicas]
                        roots = {build_merkle_tree(t).root for t in tables}
                        match = len(replicas) < 2 or len(roots) == 1
                        seen["roots_match" if match else "roots_differ"] += 1
                        report = sync_round()
                        assert report.root_match == match
                        if match:
                            assert report == SyncReport(root_match=True)
                            assert [r.table for r in replicas] == tables
                        return report

                    campaign.antientropy.sync_round = checked_sync
                campaign.run()
        assert all(seen.values()), seen
