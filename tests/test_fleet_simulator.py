"""Fleet simulator integration (small scale for CI)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.obs import names
from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind, Reporter
from repro.core.metrics import confusion
from repro.core.policy import PolicyConfig
from repro.fleet.columns import FleetColumns, defect_mode_code
from repro.fleet.population import FleetBuilder
from repro.fleet.product import CpuProduct, DEFAULT_PRODUCTS
from repro.fleet.reference import ScalarReferenceSimulator
from repro.fleet.simulator import (
    COVERAGE_EXPANSIONS_PER_YEAR,
    COVERAGE_INITIAL,
    COVERAGE_STEP,
    FleetSimulator,
    SimulatorConfig,
)
from repro.silicon.aging import AgingProfile, WeibullOnset
from repro.silicon.defects import StuckBitDefect
from repro.silicon.golden import golden_cache
from repro.silicon.units import FunctionalUnit


def _dense_products(scale=40.0):
    return tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * scale)
        for p in DEFAULT_PRODUCTS
    )


@pytest.fixture(scope="module")
def small_campaign():
    builder = FleetBuilder(
        products=_dense_products(), seed=11,
        deployment_window=(-700.0, 0.0),
    )
    columns = builder.build_columns(400)
    config = SimulatorConfig(horizon_days=120.0, warmup_days=0.0)
    result = FleetSimulator(columns, config, seed=3).run()
    return columns, result.truth, result


class TestCampaign:
    def test_produces_events(self, small_campaign):
        _, _, result = small_campaign
        assert len(result.events) > 0

    def test_quarantines_only_with_evidence(self, small_campaign):
        columns, _, result = small_campaign
        detection = confusion(columns.ground_truth_map(), result.flagged())
        # With confession-gated policy, precision should be high.
        if result.quarantined_cores:
            assert detection.precision >= 0.8

    def test_detects_some_mercurial_cores(self, small_campaign):
        _, truth, result = small_campaign
        assert truth.n_mercurial > 0
        detected = result.quarantined_cores & truth.mercurial_core_ids
        assert detected  # a 4-month campaign catches the loud ones

    def test_detection_latency_recorded(self, small_campaign):
        _, truth, result = small_campaign
        for core_id, latency in result.detection_latency_days.items():
            assert core_id in truth.mercurial_core_ids
            assert latency >= 0.0

    def test_quarantined_cores_stop_producing_events(self, small_campaign):
        _, _, result = small_campaign
        for core_id, q_day in result.quarantine_day.items():
            later = [
                e for e in result.events
                if e.core_id == core_id and e.time_days > q_day + 1.0
                and e.kind is not EventKind.USER_REPORT
            ]
            assert later == []

    def test_event_series_available_for_both_reporters(self, small_campaign):
        _, _, result = small_campaign
        auto = result.cee_report_series(Reporter.AUTOMATED, bucket_days=30.0)
        human = result.cee_report_series(Reporter.HUMAN, bucket_days=30.0)
        assert len(auto) == len(human) == 4

    def test_screening_cost_accounted(self, small_campaign):
        _, _, result = small_campaign
        assert result.screening_ops_spent > 0


class TestConfigKnobs:
    @pytest.mark.parametrize("field, value", [
        # a NaN horizon skips the loop and returns an empty result
        ("horizon_days", float("nan")),
        ("horizon_days", float("inf")),
        ("horizon_days", -1.0),
        ("warmup_days", float("nan")),
        ("warmup_days", -1.0),
    ])
    def test_clock_fields_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulatorConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(SimulatorConfig)
        if f.name != "policy"
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
    def test_every_numeric_field_validated(self, field, value):
        # NaN corpus sizes ran to a NaN screening total, negative ones
        # to screens that never confess, NaN rates died inside numpy
        with pytest.raises(ValueError, match=field):
            SimulatorConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "p_selfcheck_surface", "p_crash_surface", "p_user_surface",
    ])
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError, match=field):
            SimulatorConfig(**{field: 1.0 + 1e-9})
        assert getattr(SimulatorConfig(**{field: 1.0}), field) == 1.0

    def test_zero_horizon_and_refresh_are_legal(self):
        config = SimulatorConfig(horizon_days=0.0, warmup_days=0.0)
        columns = FleetBuilder(products=_dense_products(), seed=13).build_columns(10)
        result = FleetSimulator(columns, config, seed=1).run()
        assert len(result.events) == 0

    def test_zero_background_noise_yields_no_bg_crashes(self):
        builder = FleetBuilder(products=_dense_products(), seed=13)
        columns = builder.build_columns(100)
        config = SimulatorConfig(
            horizon_days=30.0, warmup_days=0.0,
            bg_crash_rate=0.0, bg_user_rate=0.0,
        )
        result = FleetSimulator(columns, config, seed=1).run()
        software_bug_crashes = [
            e for e in result.events
            if e.kind is EventKind.CRASH and e.detail == "software bug"
        ]
        assert software_bug_crashes == []

    def test_coverage_expansion_steps(self):
        builder = FleetBuilder(products=_dense_products(), seed=13)
        columns = builder.build_columns(50)
        config = SimulatorConfig(horizon_days=10.0, warmup_days=0.0)
        simulator = FleetSimulator(columns, config, seed=1)
        step_days = 365.0 / COVERAGE_EXPANSIONS_PER_YEAR
        assert simulator._coverage(0.0) == pytest.approx(COVERAGE_INITIAL)
        assert simulator._coverage(step_days - 1.0) == pytest.approx(
            COVERAGE_INITIAL
        )
        assert simulator._coverage(step_days + 1.0) == pytest.approx(
            COVERAGE_INITIAL + COVERAGE_STEP
        )
        assert simulator._coverage(2000.0) == 1.0  # capped

    def test_no_detectors_means_no_detection(self):
        """Ablation: with screening disabled AND no surfacing channels,
        corruption accumulates invisibly — the pre-awareness world the
        paper's §1 anecdote describes."""
        quiet = (
            CpuProduct(
                "v", "quiet", 32, core_prevalence=2e-3,
                onset=WeibullOnset(),
            ),
        )
        columns = FleetBuilder(products=quiet, seed=17).build_columns(150)
        config = SimulatorConfig(
            horizon_days=60.0, warmup_days=0.0,
            online_corpus_ops=0.0, offline_corpus_ops=0.0,
            confession_corpus_ops=0.0,
            p_selfcheck_surface=0.0, p_crash_surface=0.0,
            p_user_surface=0.0,
            bg_crash_rate=0.0, bg_user_rate=0.0,
        )
        result = FleetSimulator(columns, config, seed=2).run()
        assert result.truth.n_mercurial > 0
        assert result.total_corruptions > 0  # damage is real...
        # ...and invisible — except for fail-noisy (machine-check)
        # defects, which are detectable by construction (§2: machine
        # checks are disruptive but at least observable).
        from repro.silicon.defects import MachineCheckDefect

        defects_by_id = {
            columns.core_id(int(flat)): columns.merc_defects(index)
            for index, flat in enumerate(columns.merc_core)
        }
        for core_id in result.quarantined_cores:
            defects = defects_by_id[core_id]
            assert any(isinstance(d, MachineCheckDefect) for d in defects)

    def test_app_selfchecks_alone_catch_loud_cores(self):
        """Even with zero screening, application-level checks (§6's
        'many of our applications already checked for SDCs') surface
        the loud mercurial cores."""
        columns = FleetBuilder(
            products=_dense_products(), seed=17,
            deployment_window=(-700.0, 0.0),
        ).build_columns(200)
        config = SimulatorConfig(
            horizon_days=60.0, warmup_days=0.0,
            online_corpus_ops=0.0, offline_corpus_ops=0.0,
        )
        result = FleetSimulator(columns, config, seed=2).run()
        detected = result.quarantined_cores & result.truth.mercurial_core_ids
        assert detected


def _simulated(columns, config, seed, fast):
    """One campaign on ``columns`` with the fleet tick's fast paths on
    (``fast``) or on the every-tick reference form."""
    with golden_cache(fast):
        simulator = FleetSimulator(columns, config, seed=seed)
        return simulator, simulator.run()


class TestLazyBookkeepingDifferential:
    """The fast tick — mercurial bookkeeping recomputed only on a wake
    tick, channel counts drawn as scalars with the no-op draws skipped —
    against the reference form the golden-cache switch selects, which
    recomputes every tick and draws each channel as one array call.
    Everything a run leaves behind must be equal, down to the bytes."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_machines=st.integers(20, 160),
        prevalence=st.sampled_from([5.0, 40.0, 150.0]),
        window=st.sampled_from(
            [(0.0, 0.0), (-700.0, 0.0), (-20.0, 10.0), (-90.0, 45.0)]
        ),
        whole_days=st.integers(0, 100),
        last_tick=st.sampled_from([0.0, 0.25, 0.5, 0.999]),
        # a tick grid off the integers makes ``now - deploy`` round
        warmup=st.sampled_from([0.0, 0.1, 2.7, 30.25]),
        seed=st.integers(0, 2**16),
    )
    # two fleets where a wake scheduled at the exact crossing, without
    # the slack, comes one tick after a stale-rate refresh is due
    @example(n_machines=40, prevalence=150.0, window=(-700.0, 0.0),
             whole_days=60, last_tick=0.5, warmup=2.7, seed=2)
    @example(n_machines=40, prevalence=150.0, window=(-20.0, 10.0),
             whole_days=60, last_tick=0.5, warmup=0.1, seed=5)
    def test_fast_tick_equals_every_tick(
        self, n_machines, prevalence, window, whole_days, last_tick,
        warmup, seed,
    ):
        fleet = FleetBuilder(
            products=_dense_products(prevalence), seed=seed,
            deployment_window=window,
        ).build_columns(n_machines)
        config = SimulatorConfig(
            horizon_days=whole_days + last_tick, warmup_days=warmup,
        )
        runs = [
            _simulated(fleet.thaw(), config, seed, fast)
            for fast in (True, False)
        ]
        (fast_sim, fast), (ref_sim, ref) = runs
        for field in dataclasses.fields(fast):
            if field.name not in ("events", "triage"):
                assert getattr(fast, field.name) == getattr(ref, field.name), (
                    field.name
                )
        assert list(fast.events) == list(ref.events)
        assert fast.triage.investigations == ref.triage.investigations
        for name in ("online", "merc_age"):
            assert (getattr(fast_sim.columns, name).tobytes()
                    == getattr(ref_sim.columns, name).tobytes()), name
        # the rate cache and both streams: a missed refresh or a skipped
        # draw that consumes shows here even when no event moved
        for name in ("_merc_silent", "_merc_mce", "_merc_synced_age",
                     "_merc_rate_age"):
            assert (getattr(fast_sim, name).tobytes()
                    == getattr(ref_sim, name).tobytes()), name
        for fast_rng, ref_rng in (
            (fast_sim.rng, ref_sim.rng),
            (fast.triage.rng, ref.triage.rng),
        ):
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def _bespoke_fleet(n_bad=3, onset_days=0.0, base_rate=1e-4):
    """Two 4-core machines deployed 60 days before t=0; the first
    carries ``n_bad`` loud mercurial cores (c00..), so the
    machine_core_limit escalation is reachable deterministically."""
    product = CpuProduct(
        vendor="sim", sku="bespoke-4c", cores_per_machine=4,
        core_prevalence=0.0,
    )
    defects = [
        (
            StuckBitDefect(
                f"d/m00000/c{c:02d}", bit=3, base_rate=base_rate,
                unit=FunctionalUnit.LOAD_STORE,
                aging=AgingProfile(onset_days=onset_days),
            ),
        )
        for c in range(n_bad)
    ]
    mercurial = np.zeros(8, dtype=bool)
    mercurial[:n_bad] = True
    return FleetColumns(
        products=(product,),
        machine_product=np.zeros(2, dtype=np.int16),
        machine_deploy_day=np.full(2, -60.0),
        machine_core_start=np.array([0, 4, 8], dtype=np.int64),
        core_machine=np.repeat(np.arange(2, dtype=np.int32), 4),
        mercurial=mercurial,
        online=np.ones(8, dtype=bool),
        merc_core=np.arange(n_bad, dtype=np.int64),
        merc_onset=np.full(n_bad, onset_days),
        merc_defect_mode=np.array(
            [defect_mode_code(d) for d in defects], dtype=np.int16
        ),
        merc_age=np.zeros(n_bad),
        merc_sample_seed=np.zeros(n_bad, dtype=np.uint64),
        _merc_defects=defects,
    )


def _quiet_config(**overrides):
    """No human channel, no background noise: the policy path alone."""
    defaults = dict(
        horizon_days=40.0, warmup_days=0.0,
        p_user_surface=0.0, bg_crash_rate=0.0, bg_user_rate=0.0,
        policy=PolicyConfig(
            machine_core_limit=3, max_quarantined_fraction=1.0
        ),
    )
    defaults.update(overrides)
    return SimulatorConfig(**defaults)


class TestQuarantineMachine:
    """The Action.QUARANTINE_MACHINE escalation path (simulator.py)."""

    @pytest.fixture(scope="class")
    def escalated(self):
        result = FleetSimulator(
            _bespoke_fleet(n_bad=3), _quiet_config(), seed=5
        ).run()
        return result.truth, result

    def test_third_bad_core_pulls_the_whole_machine(self, escalated):
        truth, result = escalated
        assert truth.mercurial_core_ids <= result.quarantined_cores
        # The healthy sibling goes down with the machine...
        assert "m00000/c03" in result.quarantined_cores
        # ...while the all-healthy second machine is untouched.
        assert not any(
            core_id.startswith("m00001/")
            for core_id in result.quarantined_cores
        )

    def test_sibling_gets_a_quarantine_day_but_no_latency_entry(
        self, escalated
    ):
        _, result = escalated
        # detection_latency_days is a *detection* metric: only truly
        # mercurial cores belong in it; collateral siblings do not.
        assert "m00000/c03" in result.quarantine_day
        assert "m00000/c03" not in result.detection_latency_days

    def test_sibling_quarantined_same_day_as_the_escalating_core(
        self, escalated
    ):
        truth, result = escalated
        escalation_day = max(
            result.quarantine_day[c] for c in truth.mercurial_core_ids
        )
        assert result.quarantine_day["m00000/c03"] == escalation_day

    def test_below_the_limit_no_machine_escalation(self):
        result = FleetSimulator(
            _bespoke_fleet(n_bad=2), _quiet_config(), seed=5
        ).run()
        assert result.truth.mercurial_core_ids <= result.quarantined_cores
        assert "m00000/c03" not in result.quarantined_cores


class TestDetectionLatencyAccounting:
    def test_latency_clamped_for_defects_older_than_the_campaign(self):
        # The machine deployed 60 days before t=0, so an onset age of
        # 50 days predates the campaign: the core was already bad when
        # observation started and the latency clamp must hold at zero
        # (a negative "latency" would poison the E-series averages).
        result = FleetSimulator(
            _bespoke_fleet(n_bad=1, onset_days=50.0), _quiet_config(), seed=5
        ).run()
        assert "m00000/c00" in result.detection_latency_days
        assert result.quarantine_day["m00000/c00"] < 50.0
        assert result.detection_latency_days["m00000/c00"] == 0.0

    def test_day_one_defect_latency_equals_quarantine_day(self):
        result = FleetSimulator(
            _bespoke_fleet(n_bad=1, onset_days=0.0), _quiet_config(), seed=5
        ).run()
        latency = result.detection_latency_days["m00000/c00"]
        assert latency == pytest.approx(
            result.quarantine_day["m00000/c00"]
        )


class TestTickPaysForWhatChanged:
    """Counts, not timings: each per-tick cost of the detection side is
    proportional to what the tick changed.  A tick that goes back to
    rescanning fails here however fast the host is."""

    @pytest.fixture
    def counted_run(self, monkeypatch):
        from repro.core import report
        from repro.detection.signals import SignalAnalyzer
        from repro.silicon.defects import DefectModel

        counts = {"tail": 0, "plan": 0, "effective_rate": 0, "age_step": 0,
                  "score": 0, "record": 0}
        ingested = []

        def count(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(report, "_binomial_tail", "tail")
        count(DefectModel, "effective_rate", "effective_rate")
        count(DefectModel, "rate_at_age", "age_step")
        count(SuspicionTracker, "score", "score")
        real_new = CeeEvent.__new__

        def new(cls, *args, **kwargs):
            counts["record"] += 1
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(CeeEvent, "__new__", new)
        monkeypatch.setattr(obs.metrics, "enabled", True)
        real_ingest = SignalAnalyzer.ingest

        def ingest(self, event):
            ingested.append(event)
            return real_ingest(self, event)

        monkeypatch.setattr(SignalAnalyzer, "ingest", ingest)

        columns = FleetBuilder(
            products=_dense_products(), seed=11,
            deployment_window=(-700.0, 0.0),
        ).build_columns(400)
        simulator = FleetSimulator(
            columns,
            config=SimulatorConfig(horizon_days=90.0, warmup_days=0.0),
            seed=3,
        )
        # only now: the plans are built with the simulator, not per tick
        count(DefectModel, "rate_plan", "plan")
        logged = obs.metrics.counter(names.FLEET_EVENTS_TOTAL)
        logged_before = logged.value()
        result = simulator.run()
        # what run() built and logged; iterating the log builds more
        counts["records_in_run"] = counts["record"]
        counts["logged"] = logged.value() - logged_before
        return simulator, result, counts, ingested

    def test_concentration_test_runs_once_per_new_report_batch(
        self, counted_run
    ):
        simulator, _, counts, _ = counted_run
        complaints = simulator.complaints._complaints
        assert len({c.time_days for c in complaints}) > 1
        # one analyze() per tick; it has something new to decide only
        # on a tick that brought a complaint, and then one exact tail
        # per core holding at least two reports so far
        expected = 0
        reports: dict[str, int] = {}
        position = 0
        while position < len(complaints):
            tick = complaints[position].time_days
            while (position < len(complaints)
                   and complaints[position].time_days == tick):
                core_id = complaints[position].core_id
                reports[core_id] = reports.get(core_id, 0) + 1
                position += 1
            expected += sum(1 for n in reports.values() if n >= 2)
        assert expected > 0
        assert counts["tail"] == expected

    def test_only_attributed_events_reach_the_analyzer(self, counted_run):
        _, result, _, ingested = counted_run
        assert ingested and all(e.core_id is not None for e in ingested)
        # confessions are emitted by the policy step, after the tick's
        # ingest, and never ingested (the policy acts on them directly)
        attributed = [
            e for e in result.events
            if e.core_id is not None and e.detail != "confession"
        ]
        assert ingested == attributed
        assert len(attributed) < len(result.events)

    def test_background_crashes_build_no_record(self, counted_run):
        _, result, counts, _ = counted_run
        batched = sum(1 for e in result.events if e.detail == "software bug")
        assert batched > len(result.events) // 2
        assert counts["records_in_run"] == len(result.events) - batched

    def test_suspects_decay_without_score_calls(self, counted_run):
        simulator, _, counts, _ = counted_run
        assert simulator.analyzer.tracker.tracked_cores()
        assert counts["score"] == 0

    def test_events_counter_counts_policy_confessions(self, counted_run):
        _, result, counts, _ = counted_run
        assert any(e.detail == "confession" for e in result.events)
        assert counts["logged"] == len(result.events)

    @pytest.mark.parametrize(
        "simulator_cls", [FleetSimulator, ScalarReferenceSimulator]
    )
    def test_triage_is_handed_exactly_the_attributed_user_reports(
        self, monkeypatch, simulator_cls
    ):
        triaged = []
        real_triage = FleetSimulator._run_triage

        def run_triage(self, now, reports):
            triaged.extend(reports)
            return real_triage(self, now, reports)

        monkeypatch.setattr(FleetSimulator, "_run_triage", run_triage)
        columns = FleetBuilder(
            products=_dense_products(), seed=11,
            deployment_window=(-700.0, 0.0),
        ).build_columns(400)
        result = simulator_cls(
            columns,
            config=SimulatorConfig(horizon_days=90.0, warmup_days=0.0),
            seed=3,
        ).run()
        attributed = [
            e for e in result.events
            if e.kind is EventKind.USER_REPORT and e.core_id is not None
        ]
        # both sites: a mercurial core's incident, a misfiled suspicion
        assert {e.detail for e in attributed} == {
            "production incident", "suspected bad machine",
        }
        # the same objects, in append order (triage's draw order)
        assert len(triaged) == len(attributed)
        assert all(a is b for a, b in zip(triaged, attributed))
        assert len(attributed) < len(result.events) // 10

    def test_rate_refresh_is_the_age_step_alone(self, counted_run):
        _, _, counts, _ = counted_run
        assert counts["age_step"] > 0
        assert counts["plan"] == 0
        assert counts["effective_rate"] == 0

    @pytest.fixture
    def recorded_run(self, monkeypatch):
        """The counted fleet, logging each tracker record with whether
        its core was already quarantined when it was made."""
        columns = FleetBuilder(
            products=_dense_products(), seed=11,
            deployment_window=(-700.0, 0.0),
        ).build_columns(400)
        simulator = FleetSimulator(
            columns,
            config=SimulatorConfig(horizon_days=90.0, warmup_days=0.0),
            seed=3,
        )
        records = []
        real_record = SuspicionTracker.record

        def record(self, core_id, now_days, *args, **kwargs):
            records.append((core_id, core_id in simulator.quarantine_day))
            return real_record(self, core_id, now_days, *args, **kwargs)

        monkeypatch.setattr(SuspicionTracker, "record", record)
        return simulator, simulator.run(), records

    def test_no_record_for_a_quarantined_core(self, recorded_run):
        """The complaint service re-nominates the cores it had taken
        offline on every tick; none of that reaches the tracker.  The
        one record a quarantined core may still get is the ingest of a
        misfiled background user report naming it — none in this run."""
        _, result, records = recorded_run
        assert len(result.quarantine_day) >= 3
        misfiled = [
            e for e in result.events
            if e.kind is EventKind.USER_REPORT
            and e.core_id in result.quarantine_day
            and e.time_days > result.quarantine_day[e.core_id]
        ]
        assert misfiled == []
        assert records
        assert [core_id for core_id, offline in records if offline] == []

    def test_tracker_holds_no_quarantined_core(self, recorded_run):
        simulator, result, _ = recorded_run
        tracked = set(simulator.analyzer.tracker.tracked_cores())
        assert tracked
        assert not tracked & set(result.quarantine_day)

    @pytest.mark.parametrize(
        "simulator_cls", [FleetSimulator, ScalarReferenceSimulator]
    )
    def test_misfiled_report_on_an_offline_core_is_forgotten(
        self, simulator_cls
    ):
        """Background user reports pick any core of a random machine,
        offline ones included, and the ingest records every attributed
        event; triage drops such a core again the same tick."""
        simulator = simulator_cls(
            _bespoke_fleet(n_bad=3),
            _quiet_config(horizon_days=60.0, bg_user_rate=2.0),
            seed=5,
        )
        result = simulator.run()
        assert any(
            e.detail == "suspected bad machine"
            and e.core_id in result.quarantine_day
            and e.time_days > result.quarantine_day[e.core_id]
            for e in result.events
        )
        tracked = set(simulator.analyzer.tracker.tracked_cores())
        assert not tracked & set(result.quarantine_day)

    @pytest.fixture
    def grid_pass(self, monkeypatch):
        """``grid_pass(fast)``: the simulator half of one inline
        ``fleet_grid`` pass at seed 0 — four trials of a 120-day horizon
        (plus the default warmup) over 12 000 machines — counting the
        ticks, the wakes, the ticks that draw channel counts, and the
        Poisson and binomial calls whose arguments are arrays."""
        from repro.engine import run_fleet_trials

        counts = dict.fromkeys(("tick", "wake", "channels", "array_draws"), 0)

        def count(name, key):
            real = getattr(FleetSimulator, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(FleetSimulator, name, wrapper)

        count("_tick", "tick")
        count("_wake", "wake")
        count("_channel_counts", "channels")

        class CountingRng:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def poisson(self, lam):
                counts["array_draws"] += np.ndim(lam) > 0
                return self._rng.poisson(lam)

            def binomial(self, n, p):
                counts["array_draws"] += np.ndim(n) > 0
                return self._rng.binomial(n, p)

        def trial(trial, columns):
            simulator = FleetSimulator(
                columns, config=SimulatorConfig(horizon_days=120.0),
                seed=trial.seed,
            )
            simulator.rng = CountingRng(simulator.rng)
            simulator.run()

        columns = FleetBuilder(seed=0).build_columns(12_000)

        def run(fast):
            with golden_cache(fast):
                run_fleet_trials(trial, columns, 4, seed=0, workers=1)
            return counts

        return run

    def test_fast_tick_wakes_and_draws_only_for_what_changed(self, grid_pass):
        """Of 1 200 ticks, 58 have an active mercurial core.  The fast
        tick recomputes the mercurial ages on 15 and draws every channel
        count as a scalar."""
        counts = grid_pass(True)
        assert counts == {
            "tick": 1_200, "wake": 15, "channels": 58, "array_draws": 0,
        }

    def test_every_tick_form_recomputes_and_draws_arrays(self, grid_pass):
        """The reference form: ages on every tick, five channel arrays
        (two Poisson, three binomial) on each active one."""
        counts = grid_pass(False)
        assert counts == {
            "tick": 1_200, "wake": 1_200, "channels": 58,
            "array_draws": 5 * 58,
        }

    def test_thawed_copies_share_one_machine_id_list(self):
        columns = FleetBuilder(seed=11).build_columns(40)
        first = FleetSimulator(columns.thaw(), seed=1)
        second = FleetSimulator(columns.thaw(), seed=2)
        assert first._machine_ids is second._machine_ids
        assert first._machine_ids == [
            columns.machine_id(m) for m in range(columns.n_machines)
        ]
