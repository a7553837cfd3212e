"""The campaign kernel: refactor oracle, shared-loop contract, fleet fixture.

Three nets under :mod:`repro.campaign`:

- **oracle** — the ``digest`` of ``scorecard.to_json()`` plus the
  ``(time, core, kind)`` event triples for every runner × named arm at
  CI scale, seeds 0 and 1, captured on the tree *before* the four
  runners were moved onto the kernel (commit 2df6955) and held in
  ``PINS["runs"]``.  Equal seeds must keep producing these bytes.
- **contract** — the behaviours every runner inherits from the one
  detect → quarantine → replace loop, asserted once over all of them.
- **fixture** — ``build_small_fleet`` through each public builder:
  core ids, per-core RNG states and defect tuples pinned the same way.
- **ledger** — campaign metrics are the scorecard, published once at
  ``finish()``: every ``published`` row equals its view of the card,
  and request outcomes add up to the arrivals.
"""

import bisect

import pytest

from repro import obs
from repro.analysis.experiments import CAMPAIGNS, EXPERIMENTS
from repro.campaign import Campaign, CampaignScorecard, build_small_fleet
from repro.chaos import ChaosAction, ChaosKind, ChaosSchedule
from repro.core.events import CeeEvent, EventKind, Reporter, machine_of
from repro.core.policy import PolicyConfig
from repro.mitigation.instrcheck import (
    InstrCheckCampaign,
    InstrCheckConfig,
    InstrCheckScorecard,
    build_instrcheck_fleet,
)
from repro.serving import (
    CampaignConfig,
    HardeningConfig,
    ScaleConfig,
    ScaleHardening,
    ScaleScorecard,
    ServeScaleCampaign,
    ServingCampaign,
    SloScorecard,
    build_scale_fleet,
    build_serving_fleet,
)
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import Op
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    StorageScorecard,
    build_storage_fleet,
)
from tests.pins import PINS, digest

ONSET_AGE_DAYS = 400.0


def _serving(arm, seed, ticks=250, **config):
    machines, bad = build_serving_fleet(
        onset_days=ONSET_AGE_DAYS, seed=seed + 7
    )
    campaign = ServingCampaign(
        machines, CampaignConfig(ticks=ticks, **config),
        getattr(HardeningConfig, arm)(), seed=seed + 3,
    )
    victim = next(
        r.core_id for r in campaign.router.replicas if r.core_id != bad
    )
    campaign.chaos = ChaosSchedule.standard(
        bad, victim, ticks, onset_age_days=ONSET_AGE_DAYS
    )
    return campaign


def _scale(arm, seed, ticks=200, **config):
    machines, bad = build_scale_fleet(prevalence=0.4, seed=seed + 7)
    campaign = ServeScaleCampaign(
        machines, ScaleConfig(ticks=ticks, **config),
        getattr(ScaleHardening, arm)(), seed=seed + 3,
    )
    shards = campaign.cluster.shards
    shard_loss = [r.core_id for r in shards[0].router.replicas]
    storm = [
        r.core_id for r in shards[1].router.replicas if r.core_id not in bad
    ][:2]
    campaign.chaos = ChaosSchedule.serve_scale(bad, shard_loss, storm, ticks)
    return campaign


def _storage(arm, seed, ticks=200, **config):
    machines, bad = build_storage_fleet(
        onset_days=ONSET_AGE_DAYS, seed=seed + 7
    )
    campaign = StorageCampaign(
        machines, getattr(StorageProtections, arm)(),
        StorageCampaignConfig(ticks=ticks, **config), seed=seed + 3,
    )
    victim = next(
        r.core_id for r in campaign.store.replicas if r.core_id != bad
    )
    campaign.chaos = ChaosSchedule.storage_standard(
        bad, victim, ticks, onset_age_days=ONSET_AGE_DAYS
    )
    return campaign


def _instrcheck(arm, seed, units=160, **config):
    machines, _bad = build_instrcheck_fleet(prevalence=0.25, seed=seed + 7)
    return InstrCheckCampaign(
        machines, arm, InstrCheckConfig(units=units, **config), seed=seed + 3
    )


#: runner name -> (factory(arm, seed, scale), named arms, a short scale)
RUNNERS = {
    "serving": (
        _serving, ("unhardened", "hardened", "validator_only"), 120,
    ),
    "scale": (_scale, ("baseline", "retries_breakers", "full"), 100),
    "storage": (
        _storage,
        ("unprotected", "quorum_only", "no_encrypt_verify",
         "generic_weights", "protected"),
        100,
    ),
    "instrcheck": (
        _instrcheck, ("screen", "ithica", "reptfd", "meek", "e2e"), 64,
    ),
}

#: the arm of each runner with the richest signal mix (contract suite)
FULL_ARM = {
    "serving": "hardened", "scale": "full",
    "storage": "protected", "instrcheck": "meek",
}


def _accuse_machine(campaign, machine_id="m00001", n_cores=3):
    """Plant enough screen failures on ``n_cores`` cores of one machine
    that the policy condemns each — the last one at machine level."""
    accused = [f"{machine_id}/c{c:02d}" for c in range(n_cores)]
    for core_id in accused:
        for _ in range(3):
            campaign.events.append(CeeEvent(
                time_days=0.0, machine_id=machine_id, core_id=core_id,
                kind=EventKind.SCREEN_FAIL, reporter=Reporter.AUTOMATED,
                application="test", detail="planted",
            ))
    return accused


#: room for a whole machine inside the capacity guard
ROOMY = PolicyConfig(max_quarantined_fraction=0.5)


def _run_digest(campaign) -> str:
    card = campaign.run()
    return digest({
        "card": card.to_json(),
        "events": [
            [event.time_days, event.core_id, event.kind.name]
            for event in campaign.events
        ],
    })


def _fleet_digest(machines, sku="t", prevalence=0.0) -> str:
    rows = []
    for machine in machines:
        # The row each machine's CpuProduct used to add, rebuilt from
        # the builder's name and arguments so the pinned digests hold.
        n_cores = len(machine.cores)
        rows.append([
            machine.machine_id, "sim", f"{sku}-{n_cores}c", n_cores,
            prevalence,
        ])
        for core in machine.cores:
            rows.append([
                core.core_id,
                core.rng.bit_generator.state["state"],
                [
                    [type(defect).__name__] + sorted(
                        [name, sorted(value) if isinstance(value, frozenset)
                         else repr(value)]
                        for name, value in vars(defect).items()
                    )
                    for defect in core.defects
                ],
            ])
    return digest(rows)


#: each builder variant's bad core(s); its fleet digest is in ``PINS``
FLEET_BAD_CORES = {
    "serving/0": "m00000/c01",
    "serving/1": "m00002/c05",
    "serving/2": "m00000/c00",
    "scale/0": ["m00000/c03", "m00002/c02"],
    "scale/1": ["m00000/c01", "m00000/c02", "m00001/c00", "m00001/c02", "m00001/c03", "m00001/c05", "m00002/c05"],
    "scale/2": ["m00000/c02"],
    "storage/0": "m00000/c01",
    "storage/1": "m00002/c05",
    "storage/2": "m00000/c00",
    "instrcheck/0": ["m00000/c01"],
    "instrcheck/1": ["m00000/c01", "m00000/c02", "m00000/c03", "m00000/c04", "m00000/c05"],
    "instrcheck/2": [],
}

#: builder -> (default arguments, two non-default argument sets)
FLEET_VARIANTS = {
    "serving": (build_serving_fleet, (
        {},
        dict(n_machines=3, cores_per_machine=6, bad_machine=2, bad_core=5,
             base_rate=0.2, onset_days=90.0, seed=11),
        dict(cores_per_machine=2, bad_core=0, seed=0),
    )),
    "scale": (build_scale_fleet, (
        {},
        dict(n_machines=3, cores_per_machine=6, prevalence=0.4,
             base_rate=0.2, onset_days=90.0, seed=11),
        dict(prevalence=0.01, seed=0),
    )),
    "storage": (build_storage_fleet, (
        {},
        dict(n_machines=3, cores_per_machine=6, bad_machine=2, bad_core=5,
             base_rate=0.2, onset_days=90.0, seed=11),
        dict(cores_per_machine=2, bad_core=0, seed=0),
    )),
    "instrcheck": (build_instrcheck_fleet, (
        {},
        dict(n_machines=3, cores_per_machine=6, prevalence=0.375,
             base_rate=0.2, seed=11),
        dict(prevalence=0.0, seed=0),
    )),
}


@pytest.fixture
def obs_state():
    """Save/restore the obs on/off switch around a test."""
    prior = obs.enabled()
    yield
    obs.set_enabled(prior)
    obs.metrics.reset()
    obs.tracer.reset()


def _short(name, **config):
    """One runner's richest arm at a short scale, seed 0."""
    factory, _arms, scale = RUNNERS[name]
    return factory(FULL_ARM[name], 0, scale, **config)


class TestOracle:
    @pytest.mark.parametrize(
        "key", [k for k in PINS["runs"] if "machine-quarantine" not in k]
    )
    def test_pinned_bytes(self, key):
        name, arm, seed = key.split("/")
        campaign = RUNNERS[name][0](arm, int(seed))
        assert _run_digest(campaign) == PINS["runs"][key]

    @pytest.mark.parametrize("name", ("serving", "scale", "storage"))
    def test_machine_quarantine_pinned_bytes(self, name):
        campaign = _short(name, policy=ROOMY)
        _accuse_machine(campaign)
        assert (
            _run_digest(campaign)
            == PINS["runs"][f"{name}/machine-quarantine/0"]
        )


#: every scorecard's ``to_json()`` keys, as each card hand-listed them
#: before the one ``CampaignScorecard.to_json``
DETECTION_KEYS = {
    "name", "ticks", "quarantine_tick", "first_corrupt_tick",
    "detection_latency_ms",
}
SLO_KEYS = DETECTION_KEYS | {
    "total_arrivals", "ok", "escape_rate", "corrupt_escapes",
    "corrupt_caught", "availability", "p50_latency_ms", "p99_latency_ms",
    "goodput_per_tick", "timeouts", "shed", "unavailable", "failed",
    "retries", "hedges", "machine_checks", "breaker_trips",
}
SCORECARD_KEYS = {
    SloScorecard: SLO_KEYS,
    ScaleScorecard: SLO_KEYS | {
        "answered_rate", "p999_latency_ms", "fail_closed", "stale_served",
        "retry_budget_exhausted", "hedges_won", "hedge_win_rate",
        "autoscale_ups", "autoscale_downs", "degraded_ticks", "per_cohort",
    },
    StorageScorecard: DETECTION_KEYS | {
        "writes_attempted", "keys_written", "write_failures",
        "reads_attempted", "reads_ok", "read_failures", "escape_rate",
        "durable_escapes", "unrecoverable_loss_rate", "unrecoverable_keys",
        "read_availability", "write_amplification", "corrupt_reads_caught",
        "quorum_mismatches", "encrypt_attempts", "encrypt_verify_failures",
        "scrub_mismatches", "repairs_total", "backfills",
        "mean_repair_latency_ms", "p99_repair_latency_ms",
        "wal_corrupt_records", "wal_torn_tails", "wal_records_truncated",
        "lasting_divergence", "machine_checks", "logical_bytes",
        "physical_bytes",
    },
    InstrCheckScorecard: DETECTION_KEYS | {
        "sample_rate", "units_total", "units_delivered",
        "units_crashed", "cees_caught", "cees_escaped", "coverage",
        "flagged_clean_units", "slowdown_factor", "payload_ops",
        "check_ops", "ops_sampled", "mismatches", "lag_drops", "replays",
        "screen_fails", "machine_checks",
    },
}


class TestScorecardJson:
    @pytest.mark.parametrize("card_type", list(SCORECARD_KEYS),
                             ids=lambda t: t.__name__)
    def test_key_set_is_pinned(self, card_type):
        assert set(card_type("x").to_json()) == SCORECARD_KEYS[card_type]

    def test_raw_samples_stay_out(self):
        card = StorageScorecard("x", repair_latency_ms=[1.0, 3.0])
        payload = card.to_json()
        assert "repair_latency_ms" not in payload
        assert payload["mean_repair_latency_ms"] == 2.0


@pytest.mark.parametrize("name", list(RUNNERS))
class TestContract:
    """What every runner inherits from the one loop."""

    def test_kernel_campaign_with_its_own_run(self, name):
        campaign = _short(name)
        assert isinstance(campaign, Campaign)
        assert isinstance(campaign.scorecard, CampaignScorecard)
        # benchmarks/perf patches ``run`` on the runner class itself
        assert "run" in vars(type(campaign))

    def test_obs_on_vs_off_identical(
        self, name, obs_state
    ):
        obs.set_enabled(False)
        off = _run_digest(_short(name))
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        on = _run_digest(_short(name))
        assert off == on
        on_metrics = obs.metrics.snapshot()
        on_spans = [span.to_json() for span in obs.tracer.spans()]
        assert on_spans and any(e["series"] for e in on_metrics.values())

        # One switch, read at emission time: a campaign built with obs
        # on obeys a later off ...
        obs.metrics.reset()
        obs.tracer.reset()
        campaign = _short(name)
        obs.set_enabled(False)
        assert _run_digest(campaign) == on
        assert not any(e["series"] for e in obs.metrics.snapshot().values())
        assert obs.tracer.spans() == []
        # ... and one built with obs off emits everything once it is on.
        campaign = _short(name)
        obs.set_enabled(True)
        assert _run_digest(campaign) == on
        assert obs.metrics.snapshot() == on_metrics
        assert [span.to_json() for span in obs.tracer.spans()] == on_spans

    def test_chaos_assigned_late_is_honoured(self, name):
        campaign = _short(name)
        spare = campaign.machines[-1].cores[-1]
        campaign.chaos = ChaosSchedule([
            ChaosAction(2, ChaosKind.ACTIVATE_DEFECT, spare.core_id, 123.0),
            # an unknown core id is skipped, not an error
            ChaosAction(2, ChaosKind.ACTIVATE_DEFECT, "m99999/c00", 5.0),
            ChaosAction(3, ChaosKind.CRASH_CORE, "m99999/c00",
                        duration_ticks=2),
            ChaosAction(3, ChaosKind.MACHINE_CHECK_BURST, "m99999/c00", 4.0),
        ])
        campaign.run()
        assert spare.age_days == 123.0
        assert campaign.chaos.due(10**9) == []

    def test_crashed_core_returns_unless_quarantined(self, name):
        campaign = _short(name)
        crashed, condemned = campaign.machines[-1].cores[-2:]
        campaign.chaos = ChaosSchedule([
            ChaosAction(0, ChaosKind.CRASH_CORE, core.core_id,
                        duration_ticks=3)
            for core in (crashed, condemned)
        ])
        for _ in range(3):
            campaign.events.append(CeeEvent(
                time_days=0.0, machine_id=campaign.machines[-1].machine_id,
                core_id=condemned.core_id, kind=EventKind.SCREEN_FAIL,
                reporter=Reporter.AUTOMATED, application="test",
                detail="planted",
            ))
        card = campaign.run()
        assert crashed.online
        assert crashed.core_id not in card.quarantine_tick
        # quarantined at tick 0 while down: the restore due at tick 3
        # must not bring it back
        assert card.quarantine_tick[condemned.core_id] == 0
        assert not condemned.online

    def test_machine_quarantine_pulls_siblings(self, name):
        campaign = _short(name, policy=ROOMY)
        accused = _accuse_machine(campaign)
        card = campaign.run()
        assert campaign.policy.quarantined_machines == {"m00001"}
        machine = campaign.machines[1]
        siblings = [core.core_id for core in machine.cores]
        assert set(accused) < set(siblings)
        for core in machine.cores:
            assert not core.online
            assert card.quarantine_tick[core.core_id] == 0
        assert not set(siblings) & _hosting_cores(campaign)

    def test_only_first_corrupt_tick_recorded(self, name):
        campaign = _short(name)
        core = campaign.machines[-1].cores[-1]
        for tick in (3, 7):
            campaign.begin_tick(tick)
            core.corruptions_induced += 1
            campaign.end_tick(tick)
        assert campaign.scorecard.first_corrupt_tick == {core.core_id: 3}


def _traced(experiment_id, seed):
    """The arm ``repro trace|metrics`` runs, at ``ci`` scale, not yet run
    (``campaign_arm`` keeps the campaign object to itself)."""
    spec = CAMPAIGNS[experiment_id]
    machines, bad = spec.build_fleet(seed=seed + 7, **spec.trace_fleet)
    config = spec.config(**EXPERIMENTS[experiment_id].ci)
    campaign = spec.campaign(machines, spec.trace_arm, config, seed + 3)
    if spec.script is not None:
        campaign.chaos = spec.script(campaign, bad, config)
    return campaign


def _series(entry) -> dict:
    return {
        tuple(sorted(row["labels"].items())): row for row in entry["series"]
    }


class TestLedger:
    """The obs registry is a view of the scorecard, not a second count."""

    #: counted inline: no scorecard field carries them
    INLINE = {
        "serving_shard_degraded_total", "serving_autoscale_actions_total",
    }

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("experiment_id", ("E15", "E17"))
    def test_request_outcomes_conserve_arrivals(
        self, experiment_id, seed, obs_state
    ):
        obs.set_enabled(True)
        obs.metrics.reset()
        card = _traced(experiment_id, seed).run()
        outcomes = obs.metrics.get("serving_requests_total")
        by_status = {
            dict(key)["status"]: value for key, value in outcomes.series()
        }
        assert by_status.get("shed", 0) == card.shed
        assert sum(by_status.values()) == card.total_arrivals

    @pytest.mark.parametrize("experiment_id", list(CAMPAIGNS))
    def test_every_published_row_is_its_scorecard_view(
        self, experiment_id, obs_state
    ):
        obs.set_enabled(True)
        obs.metrics.reset()
        campaign = _traced(experiment_id, 0)
        card = campaign.run()
        snapshot = obs.metrics.snapshot()
        for row in campaign.published:
            entry = snapshot[row.name]
            assert (entry["kind"], entry["help"], entry["unit"]) == (
                row.kind, row.help, row.unit,
            )
            value = row.view(card)
            got = _series(entry)
            if row.kind == "histogram":
                if not value:
                    assert got == {}
                    continue
                counts = [0] * (len(entry["buckets"]) + 1)
                total = 0.0
                for sample in value:
                    counts[bisect.bisect_left(entry["buckets"], sample)] += 1
                    total += sample
                assert got == {(): {
                    "labels": {}, "counts": counts, "sum": total,
                    "count": len(value),
                }}
                continue
            expected = (
                {((row.label, status),): amount
                 for status, amount in value.items()}
                if row.label else {(): value}
            )
            assert {key: r["value"] for key, r in got.items()} == {
                key: float(amount)
                for key, amount in expected.items() if amount
            }
        unaccounted = {
            name for name, entry in snapshot.items()
            if name.startswith(("serving_", "storage_", "instrcheck_"))
            and entry["series"]
        } - {row.name for row in campaign.published}
        assert unaccounted == (self.INLINE if experiment_id == "E17" else set())


def _hosting_cores(campaign) -> set[str]:
    """Core ids a runner currently has work placed on."""
    if isinstance(campaign, ServingCampaign):
        return {r.core_id for r in campaign.router.replicas}
    if isinstance(campaign, ServeScaleCampaign):
        return {r.core_id for r in campaign.cluster.replicas()}
    if isinstance(campaign, StorageCampaign):
        return {r.core_id for r in campaign.store.replicas}
    return {lane.core.core_id for lane in campaign.lanes}


class TestInstrcheckMachine:
    """Regression: the instrcheck runner used to downgrade a
    machine-level quarantine to a core-level one."""

    @pytest.mark.parametrize("arm", ("meek", "e2e", "screen"))
    def test_third_bad_core_takes_the_machine(self, arm):
        machines, bad = build_instrcheck_fleet(prevalence=0.375)
        assert [core_id.rsplit("/", 1)[0] for core_id in bad] == ["m00000"] * 3
        campaign = InstrCheckCampaign(
            machines, arm, InstrCheckConfig(sample_rate=1.0), seed=3
        )
        card = campaign.run()
        assert campaign.policy.quarantined_machines == {"m00000"}
        for core in machines[0].cores:
            assert not core.online
            assert core.core_id in card.quarantine_tick
        # every lane moved to the healthy machine; MEEK keeps one of its
        # four cores for the checker, so one lane stays dark there
        moved = [
            lane for lane in campaign.lanes
            if lane.core.core_id.startswith("m00001/")
        ]
        assert len(moved) == (3 if arm == "meek" else 4)
        assert card.units_delivered + card.units_crashed == card.units_total

    def test_checker_on_condemned_machine_is_replaced(self):
        machines, bad = build_instrcheck_fleet(
            cores_per_machine=8, prevalence=0.19
        )
        assert len(bad) == 3
        campaign = InstrCheckCampaign(
            machines, "meek", InstrCheckConfig(sample_rate=1.0), seed=3
        )
        assert campaign.checker_core.core_id == "m00000/c04"
        card = campaign.run()
        assert campaign.policy.quarantined_machines == {"m00000"}
        assert campaign.checker_core.core_id.startswith("m00001/")
        assert all(
            lane.core.core_id.startswith("m00001/") for lane in campaign.lanes
        )
        assert card.units_delivered + card.units_crashed == card.units_total

    def test_no_spares_left_ends_the_run(self):
        machines, _bad = build_instrcheck_fleet(n_machines=1, prevalence=0.75)
        config = InstrCheckConfig(
            units=240, sample_rate=1.0,
            policy=PolicyConfig(max_quarantined_fraction=1.0),
        )
        card = InstrCheckCampaign(machines, "e2e", config, seed=3).run()
        assert len(card.quarantine_tick) == 4
        assert card.units_crashed > 0
        assert card.units_delivered + card.units_crashed == card.units_total


#: what each runner places first, as its too-small-fleet error names it
PLACES = {
    "E15": "4 replicas", "E16": "3 replicas",
    "E17": "9 shard replicas", "E18": "5 lane and checker cores",
}


@pytest.mark.parametrize("experiment_id", list(CAMPAIGNS))
class TestPlacement:
    """The kernel picks cores: the first free ones, in fleet order."""

    @staticmethod
    def _campaign(experiment_id, machines):
        spec = CAMPAIGNS[experiment_id]
        return spec.campaign(machines, spec.trace_arm, spec.config(), 3)

    def _fleet_and_campaign(self, experiment_id):
        spec = CAMPAIGNS[experiment_id]
        machines, _bad = spec.build_fleet(seed=7, **spec.trace_fleet)
        return machines, self._campaign(experiment_id, machines)

    def test_too_small_fleet_names_what_it_places(self, experiment_id):
        machines, _bad = build_small_fleet(1, 2, 0, lambda *_: ())
        with pytest.raises(
            ValueError,
            match=f"fleet too small for {PLACES[experiment_id]}: 2 free",
        ):
            self._campaign(experiment_id, machines)

    def test_free_cores_keep_fleet_order_and_skip_taken_cores(
        self, experiment_id
    ):
        machines, campaign = self._fleet_and_campaign(experiment_id)
        flat = [core for machine in machines for core in machine.cores]
        crashed, quarantined, occupied = flat[0], flat[1], flat[2]
        crashed.set_online(False)
        campaign.quarantine(quarantined.core_id, 0)
        # a quarantined core stays out even while a screener has it up
        quarantined.set_online(True)
        free = campaign.free_cores({occupied.core_id})
        assert free == flat[3:]
        assert campaign.spare_core({occupied.core_id}) is flat[3]
        assert campaign.place(2, "tasks") == [occupied, flat[3]]

    def test_spare_core_is_none_on_a_drained_fleet(self, experiment_id):
        machines, campaign = self._fleet_and_campaign(experiment_id)
        flat = [core for machine in machines for core in machine.cores]
        for core in flat[1:]:
            core.set_online(False)
        assert campaign.free_cores(()) == [flat[0]]
        assert campaign.spare_core({flat[0].core_id}) is None
        with pytest.raises(ValueError, match="fleet too small for 2 tasks"):
            campaign.place(2, "tasks")
        with pytest.raises(ValueError, match="number of tasks must be >= 0"):
            campaign.place(-1, "tasks")


class TestFleet:
    @pytest.mark.parametrize(
        "name,variant",
        [(name, i) for name in FLEET_VARIANTS for i in range(3)],
    )
    def test_builder_reproduces_pinned_fleet(self, name, variant):
        builder, variants = FLEET_VARIANTS[name]
        machines, bad = builder(**variants[variant])
        assert bad == FLEET_BAD_CORES[f"{name}/{variant}"]
        prevalence = (
            variants[variant].get("prevalence", 0.1) if name == "scale"
            else 0.0
        )
        assert (
            _fleet_digest(machines, name, prevalence)
            == PINS["fleets"][f"{name}/{variant}"]
        )

    def test_defects_for_sees_fleet_order(self):
        seen = []

        def defects_for(core_id, index):
            seen.append((core_id, index))
            return ()

        machines, bad = build_small_fleet(2, 3, 5, defects_for)
        assert bad == []
        assert seen == [
            (f"m{m:05d}/c{c:02d}", m * 3 + c)
            for m in range(2) for c in range(3)
        ]

    def test_generator_seed_continues_callers_stream(self):
        import numpy as np

        root = np.random.default_rng(9)
        root.permutation(8)
        resumed, _ = build_small_fleet(2, 4, root, lambda *_: ())
        fresh, _ = build_small_fleet(2, 4, 9, lambda *_: ())
        assert _fleet_digest(resumed) != _fleet_digest(fresh)
        again = np.random.default_rng(9)
        again.permutation(8)
        replay, _ = build_small_fleet(2, 4, again, lambda *_: ())
        assert _fleet_digest(resumed) == _fleet_digest(replay)

    def test_core_ids_are_stable(self):
        machines, _ = build_small_fleet(2, 3, 0, lambda *_: ())
        assert [m.machine_id for m in machines] == ["m00000", "m00001"]
        assert [c.core_id for c in machines[1].cores] == [
            "m00001/c00", "m00001/c01", "m00001/c02"
        ]

    def test_distinct_rngs_per_core(self):
        """Cores must not share random streams (defect independence)."""
        machines, _ = build_small_fleet(2, 2, 9, lambda *_: ())
        draws = [int(c.rng.integers(2**32)) for m in machines for c in m.cores]
        assert len(set(draws)) == len(draws)

    def test_defects_land_on_the_named_slot(self):
        defect = StuckBitDefect("d", bit=1, ops=(Op.ADD,))
        machines, bad = build_small_fleet(
            2, 4, 0, lambda _, index: [defect] if index == 6 else ()
        )
        assert bad == ["m00001/c02"]
        assert [
            c.core_id for m in machines for c in m.cores if c.is_mercurial
        ] == bad
        assert machines[1].cores[2].defects == (defect,)

    def test_machine_without_cores_rejected(self):
        with pytest.raises(ValueError, match="cores_per_machine"):
            build_small_fleet(2, 0, 0, lambda *_: ())

    @pytest.mark.parametrize(
        "name,variant",
        [(name, i) for name in FLEET_VARIANTS for i in range(3)],
    )
    def test_every_core_names_its_machine(self, name, variant):
        builder, variants = FLEET_VARIANTS[name]
        machines, _ = builder(**variants[variant])
        for machine in machines:
            assert machine.cores
            for core in machine.cores:
                assert machine_of(core.core_id) == machine.machine_id
