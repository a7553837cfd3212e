"""Fleet-scale proxy screening: distillation, screens, ride-along budget.

Pins the contracts E19 and the operator guide (SCREENING.md) rely on:

- distillation is deterministic (same corpus => identical battery) and
  lands on the coverage/cost frontier (full unit coverage, far cheaper);
- whole-fleet screens are O(mercurial) with bulk cost accounting, and a
  battery that misses a defect's functional unit can never detect it;
- ride-along passes never spend over the machine-second budget and
  round-robin the fleet instead of re-screening a prefix;
- confessions drive the weighted quarantine loop (``columns.online``
  flips off) and the skipped-coverage breadcrumb is emitted;
- REPRO_OBS=off and on produce byte-identical E19 scorecards.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro import obs
from repro.core.events import EventKind
from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import (
    DistilledBattery,
    FleetScreener,
    RideAlongCampaign,
    RideAlongConfig,
    RideAlongScreener,
    UNIT_ORDER,
    distill,
    full_battery,
    unit_ops_vector,
)
from repro.detection.weights import default_weights
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.silicon.environment import NOMINAL
from repro.silicon.units import UNIT_OPS


def _boosted_columns(n_machines: int = 40, scale: float = 800.0, seed: int = 11):
    """A columnar fleet dense enough in mercurial cores to test against."""
    products = tuple(
        dataclasses.replace(
            p, core_prevalence=min(1.0, p.core_prevalence * scale)
        )
        for p in DEFAULT_PRODUCTS
    )
    return FleetBuilder(
        products=products, seed=seed, deployment_window=(-400.0, 0.0)
    ).build_columns(n_machines)


class TestDistillation:
    def test_same_corpus_distills_identically(self):
        first = distill(TestCorpus.standard())
        second = distill(TestCorpus.standard())
        assert first.test_names() == second.test_names()
        assert first.total_ops == second.total_ops

    def test_distilled_battery_on_the_frontier(self):
        corpus = TestCorpus.standard()
        full = full_battery(corpus)
        distilled = distill(corpus)
        # the SiliFuzz claim: >=90% unit coverage at measurably lower cost
        assert distilled.coverage_fraction >= 0.9
        assert distilled.total_ops < full.total_ops
        assert len(distilled.tests) < len(full.tests)

    def test_full_set_cover_by_default(self):
        corpus = TestCorpus.standard()
        distilled = distill(corpus)
        assert distilled.covered_units >= corpus.covered_units()

    def test_partial_coverage_is_cheaper_still(self):
        corpus = TestCorpus.standard()
        half = distill(corpus, min_coverage=0.5)
        assert half.coverage_fraction >= 0.5
        assert half.total_ops <= distill(corpus).total_ops

    def test_min_coverage_validated(self):
        with pytest.raises(ValueError):
            distill(TestCorpus.standard(), min_coverage=0.0)

    def test_unit_ops_vector_splits_evenly(self):
        corpus = TestCorpus.standard()
        ops = unit_ops_vector(corpus.tests)
        assert ops.shape == (len(UNIT_ORDER),)
        assert ops.sum() == pytest.approx(
            sum(t.approx_ops for t in corpus.tests if t.target_units)
        )


class TestFleetScreener:
    def test_bulk_cost_covers_every_online_core(self):
        columns = _boosted_columns()
        battery = distill(TestCorpus.standard())
        result = FleetScreener(battery).screen(
            columns, 30.0, np.random.default_rng(0)
        )
        assert result.n_screened == int(columns.online.sum())
        assert result.cost_ops == result.n_screened * battery.total_ops
        assert result.machine_seconds == pytest.approx(
            result.cost_ops / 5e6
        )

    def test_confessions_only_from_mercurial_cores(self):
        columns = _boosted_columns()
        battery = full_battery(TestCorpus.standard())
        result = FleetScreener(battery, env_boost=6.0).screen(
            columns, 60.0, np.random.default_rng(0)
        )
        mercurial = set(np.asarray(columns.merc_core).tolist())
        assert result.confessed_flat
        assert set(result.confessed_flat) <= mercurial
        assert all(
            e.kind is EventKind.FLEETSCREEN_FAIL for e in result.events
        )

    @pytest.mark.parametrize("env_boost", [math.nan, math.inf, -6.0, 0.0])
    def test_env_boost_validated(self, env_boost):
        # each of these used to screen the fleet and confess nothing
        with pytest.raises(ValueError, match="env_boost"):
            FleetScreener(distill(TestCorpus.standard()), env_boost=env_boost)

    @pytest.mark.parametrize("now_days", [math.nan, math.inf, -math.inf])
    def test_now_days_validated(self, now_days):
        screener = FleetScreener(distill(TestCorpus.standard()))
        with pytest.raises(ValueError, match="now_days"):
            screener.screen(
                _boosted_columns(), now_days, np.random.default_rng(0)
            )

    def test_battery_missing_the_unit_detects_nothing(self):
        # a battery whose tests target no units has zero per-unit ops,
        # so every defect's confession probability is exactly zero
        columns = _boosted_columns()
        empty = DistilledBattery(tests=(), source_units=frozenset())
        result = FleetScreener(empty, env_boost=6.0).screen(
            columns, 60.0, np.random.default_rng(0)
        )
        assert result.confessed_flat == ()
        assert result.cost_ops == 0.0

    def test_screen_accepts_readonly_snapshot_columns(self):
        from repro.fleet import shm as fleet_shm

        columns = _boosted_columns()
        battery = distill(TestCorpus.standard())
        expected = FleetScreener(battery, env_boost=6.0).screen(
            columns, 60.0, np.random.default_rng(3)
        )
        snapshot = fleet_shm.publish(columns)
        try:
            attached = fleet_shm.attach(snapshot.handle)
            got = FleetScreener(battery, env_boost=6.0).screen(
                attached.columns, 60.0, np.random.default_rng(3)
            )
            assert got.confessed_flat == expected.confessed_flat
            assert got.n_screened == expected.n_screened
            attached.close()
        finally:
            snapshot.close()

    def test_shards_partition_the_fleet(self):
        # Machine-contiguous shards keep every core of a machine in one
        # shard, so per-shard screens add up to the whole-fleet screen.
        columns = _boosted_columns()
        battery = distill(TestCorpus.standard())
        n_shards = 4
        bounds = np.linspace(0, columns.n_machines, n_shards + 1).astype(int)
        screener = FleetScreener(battery)
        results = []
        for shard in range(n_shards):
            lo = int(columns.machine_core_start[bounds[shard]])
            hi = int(columns.machine_core_start[bounds[shard + 1]])
            subset = np.zeros(columns.n_cores, dtype=bool)
            subset[lo:hi] = True
            results.append(screener.screen(
                columns, 30.0, np.random.default_rng(shard), subset=subset
            ))
        whole = screener.screen(columns, 30.0, np.random.default_rng(0))
        assert sum(r.n_screened for r in results) == whole.n_screened


def _merc_ages(columns, day):
    machine = columns.core_machine[np.asarray(columns.merc_core)]
    return day - columns.machine_deploy_day[machine.astype(np.int64)]


class TestUnitRateReuse:
    """What ``_unit_rates`` may keep between screens, and for whom."""

    def test_one_screener_two_fleets(self):
        # Same mercurial count, same week of mean age: the week-keyed
        # matrix of fleet A used to be handed back for fleet B.
        battery = distill(TestCorpus.standard())
        fleet_a = FleetBuilder(seed=1).build_columns(4000)
        fleet_b = FleetBuilder(seed=6).build_columns(4000)
        assert fleet_a.n_mercurial == fleet_b.n_mercurial == 10
        ages_a, ages_b = _merc_ages(fleet_a, 100.0), _merc_ages(fleet_b, 100.0)
        assert int(ages_a.mean() // 7) == int(ages_b.mean() // 7)

        shared = FleetScreener(battery)
        rates_a = shared._unit_rates(fleet_a, ages_a).copy()
        rates_b = shared._unit_rates(fleet_b, ages_b).copy()
        assert not np.array_equal(rates_b, rates_a)
        assert np.array_equal(
            rates_b, FleetScreener(battery)._unit_rates(fleet_b, ages_b)
        )
        # and back again: nothing of B's is left over for A
        assert np.array_equal(shared._unit_rates(fleet_a, ages_a), rates_a)

    def test_thawed_copy_is_the_same_fleet(self):
        columns = FleetBuilder(seed=1).build_columns(4000)
        screener = FleetScreener(distill(TestCorpus.standard()))
        ages = _merc_ages(columns, 100.0)
        rates = screener._unit_rates(columns, ages)
        # the week-of-mean-age reuse is per fleet, not per copy
        assert screener._unit_rates(columns.thaw(), ages + 1.0) is rates

    def test_later_screens_pay_only_the_age_step(self, monkeypatch):
        from repro.silicon import defects as defect_module
        from repro.silicon import sensitivity as sensitivity_module

        columns = FleetBuilder(seed=1).build_columns(4000)
        screener = FleetScreener(
            distill(TestCorpus.standard()), env_boost=6.0
        )
        rng = np.random.default_rng(0)
        screener.screen(columns, 100.0, rng)

        calls = []

        def counted(cls, name):
            real = getattr(cls, name)

            def wrapper(self, *args):
                calls.append(f"{cls.__name__}.{name}")
                return real(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        for cls in (
            defect_module.DefectModel,
            defect_module.SboxPermutationDefect,
            defect_module.OperandPatternDefect,
        ):
            counted(cls, "trigger_fraction")
        for name in ("FlatSensitivity", "FrequencySensitivity",
                     "VoltageMarginSensitivity", "ThermalSensitivity",
                     "ComposedSensitivity"):
            counted(getattr(sensitivity_module, name), "multiplier")
        counted(defect_module.DefectModel, "rate_at_age")

        before = screener._rate_cache
        screener.screen(columns, 130.0, rng)  # a later week: new matrix
        assert screener._rate_cache is not before
        assert "DefectModel.rate_at_age" in calls
        assert set(calls) == {"DefectModel.rate_at_age"}

        # the plans changed no number: the per-op walk over every
        # defect × unit × op agrees to the bit
        ages = _merc_ages(columns, 130.0)
        expected = np.zeros((columns.n_mercurial, len(UNIT_ORDER)))
        for i in range(columns.n_mercurial):
            env, age = NOMINAL, float(ages[i])
            for u, unit in enumerate(UNIT_ORDER):
                ops = UNIT_OPS[unit]
                expected[i, u] = sum(
                    sum(
                        1.0 / len(ops) * defect.effective_rate(op, env, age)
                        for op in ops
                    )
                    for defect in columns.merc_defects(i)
                )
        assert expected.any()
        assert np.array_equal(screener._unit_rates(columns, ages), expected)


class TestRideAlongBudget:
    def test_spend_never_exceeds_budget(self):
        columns = _boosted_columns()
        screener = RideAlongScreener(
            distill(TestCorpus.standard()),
            RideAlongConfig(budget_fraction=2.5e-7),
        )
        rng = np.random.default_rng(0)
        for step in range(10):
            result = screener.run_pass(columns, float(step), 1.0, rng)
            assert result.spent_machine_seconds <= result.budget_machine_seconds
            assert result.n_skipped > 0  # this budget is genuinely binding

    def test_round_robin_sweeps_the_fleet(self):
        columns = _boosted_columns()
        screener = RideAlongScreener(
            distill(TestCorpus.standard()),
            RideAlongConfig(budget_fraction=2.5e-7),
        )
        rng = np.random.default_rng(0)
        first = screener.run_pass(columns, 0.0, 1.0, rng)
        second = screener.run_pass(columns, 1.0, 1.0, rng)
        assert first.screen.n_screened == second.screen.n_screened > 0
        # successive passes advance the cursor instead of re-screening
        # the same low-indexed prefix; over enough passes the whole
        # online fleet gets covered
        seen = first.screen.n_screened + second.screen.n_screened
        assert seen <= int(columns.online.sum())

    def test_skipped_breadcrumb_emitted_once_per_pass(self):
        columns = _boosted_columns()
        screener = RideAlongScreener(
            distill(TestCorpus.standard()),
            RideAlongConfig(budget_fraction=2.5e-7),
        )
        result = screener.run_pass(
            columns, 0.0, 1.0, np.random.default_rng(0)
        )
        skips = [
            e for e in result.events
            if e.kind is EventKind.RIDEALONG_SKIPPED
        ]
        assert len(skips) == 1
        assert skips[0].core_id is None  # aggregate, charges no core
        assert str(result.n_skipped) in skips[0].detail

    def test_unlimited_budget_skips_nothing(self):
        columns = _boosted_columns()
        screener = RideAlongScreener(
            distill(TestCorpus.standard()), RideAlongConfig(budget_fraction=1.0)
        )
        result = screener.run_pass(
            columns, 0.0, 1.0, np.random.default_rng(0), busy=None
        )
        assert result.n_skipped == 0
        assert result.screen.n_screened == result.n_candidates

    def test_budget_fraction_validated(self):
        with pytest.raises(ValueError):
            RideAlongConfig(budget_fraction=1.5)


class TestRideAlongCampaign:
    def test_confessions_quarantine_through_the_weights(self):
        columns = _boosted_columns()
        screener = RideAlongScreener(
            distill(TestCorpus.standard()),
            RideAlongConfig(budget_fraction=2e-5),
        )
        campaign = RideAlongCampaign(columns, screener, seed=3)
        report = campaign.run(horizon_days=60.0)
        assert report.n_confessions > 0
        assert report.detected
        # detected cores are offline (the quarantine loop closed)
        for flat in report.detected:
            assert not campaign.columns.online[flat]
        assert 0.0 < report.detected_fraction <= 1.0
        assert report.machine_seconds <= report.budget_machine_seconds
        assert all(lat >= 0.0 for lat in report.detection_latency_days)

    @pytest.mark.parametrize("kwargs, name", [
        ({"horizon_days": -5.0}, "horizon_days"),
        ({"horizon_days": 10.0, "tick_days": -1.0}, "tick_days"),
        ({"horizon_days": 10.0, "tick_days": 0.0}, "tick_days"),
        ({"horizon_days": 10.0, "tick_days": math.inf}, "tick_days"),
    ])
    def test_run_rejects_bad_horizon_and_tick(self, kwargs, name):
        # refused by name, not a plausible-looking report or an unrelated
        # IndexError / ZeroDivisionError / NaN conversion
        screener = RideAlongScreener(
            distill(TestCorpus.standard()), RideAlongConfig()
        )
        campaign = RideAlongCampaign(_boosted_columns(), screener, seed=3)
        with pytest.raises(ValueError, match=name):
            campaign.run(**kwargs)

    def test_weights_table_knows_the_new_events(self):
        weights = default_weights()
        assert weights[EventKind.FLEETSCREEN_FAIL] == pytest.approx(3.0)
        assert weights[EventKind.RIDEALONG_SKIPPED] == pytest.approx(0.2)
        # two confessions cross the default 6.0 quarantine threshold
        assert 2 * weights[EventKind.FLEETSCREEN_FAIL] >= 6.0


@pytest.fixture
def obs_state():
    prior = obs.enabled()
    yield
    obs.set_enabled(prior)
    obs.metrics.reset()
    obs.tracer.reset()


def _e19_fingerprint() -> str:
    from repro.analysis.experiments import EXPERIMENTS, evaluate

    experiment = EXPERIMENTS["E19"]
    result = experiment.run(n_machines=30, horizon_days=30.0)
    payload = {
        "grid": result["grid"],
        "baseline": [
            {k: v for k, v in row.items()
             if isinstance(v, (int, float, str, bool))}
            for row in result["baseline"]
        ],
        "claims": [
            (claim.name, held)
            for claim, held in evaluate(experiment, result)
        ],
        "rendered": result["rendered"],
    }
    return json.dumps(payload, sort_keys=True)


class TestObsParity:
    def test_e19_scorecard_identical_off_vs_on(self, obs_state):
        obs.set_enabled(False)
        off = _e19_fingerprint()
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        on = _e19_fingerprint()
        assert off == on

    def test_screener_emits_when_enabled(self, obs_state):
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        columns = _boosted_columns()
        battery = distill(TestCorpus.standard())
        FleetScreener(battery).screen(columns, 30.0, np.random.default_rng(0))
        assert obs.metrics.counter(
            "fleetscreen_screens_total"
        ).value() == float(int(columns.online.sum()))
