"""Seed discipline: every campaign is a pure function of its seeds.

Reproducibility is the whole point of simulated silicon — a mercurial
core you cannot re-run is as unhelpful as a real one.  These tests pin
the contract: rebuilding the fleet and simulator with the same seeds
reproduces the campaign event-for-event; changing the seed changes the
event stream.
"""

import dataclasses

from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.simulator import FleetSimulator, SimulatorConfig


def _run(build_seed=11, sim_seed=3):
    # Rebuilt per run so the builder's determinism is under test too
    # (and because the simulator quarantines in the columns it is handed).
    products = tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * 40.0)
        for p in DEFAULT_PRODUCTS
    )
    columns = FleetBuilder(
        products=products, seed=build_seed,
        deployment_window=(-700.0, 0.0),
    ).build_columns(150)
    config = SimulatorConfig(horizon_days=60.0, warmup_days=0.0)
    return FleetSimulator(columns, config, seed=sim_seed).run()


def _event_stream(result):
    return [
        (e.time_days, e.machine_id, e.core_id, e.kind, e.reporter, e.detail)
        for e in result.events
    ]


class TestSameSeed:
    def test_identical_event_streams(self):
        first, second = _run(), _run()
        assert len(first.events) == len(second.events)
        assert _event_stream(first) == _event_stream(second)

    def test_identical_quarantine_outcome(self):
        first, second = _run(), _run()
        assert first.quarantined_cores == second.quarantined_cores
        assert first.quarantine_day == second.quarantine_day
        assert first.detection_latency_days == second.detection_latency_days

    def test_identical_aggregate_counters(self):
        first, second = _run(), _run()
        assert first.total_corruptions == second.total_corruptions
        assert first.app_visible_corruptions == second.app_visible_corruptions
        assert first.screening_ops_spent == second.screening_ops_spent


class TestDifferentSeed:
    def test_simulator_seed_changes_the_event_stream(self):
        first = _run(sim_seed=3)
        second = _run(sim_seed=4)
        assert _event_stream(first) != _event_stream(second)

    def test_build_seed_changes_the_fleet(self):
        first = _run(build_seed=11)
        second = _run(build_seed=12)
        assert _event_stream(first) != _event_stream(second)

