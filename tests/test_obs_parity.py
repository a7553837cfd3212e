"""No-op-mode parity and the per-trial telemetry-leak regression.

Two invariants keep observability honest:

1. **Parity** — REPRO_OBS=off and on produce byte-identical campaign
   scorecards: instrumentation never touches RNG draws, control flow,
   or the unconditional forensics bookkeeping.
2. **No leak** — pool workers are long-lived, so per-trial counters
   must be reset at trial entry and merged exactly once on gather; the
   merged totals are independent of the worker count.  (Before the
   per-trial reset in ``run_trials``, a worker's counters accumulated
   across every trial it executed, overcounting by a worker-placement-
   dependent amount.)
"""

import json

import pytest

from repro import obs
from repro.engine.runner import run_trials


@pytest.fixture
def obs_state():
    """Save/restore the obs on/off switch around a test."""
    prior = obs.enabled()
    yield
    obs.set_enabled(prior)
    obs.metrics.reset()
    obs.tracer.reset()


def _serving_card(seed: int):
    from repro.analysis.experiments import campaign_arm

    card, _events, _bad = campaign_arm(
        "hardened", experiment_id="E15", seed=seed, ticks=150
    )
    return json.dumps(card.to_json(), sort_keys=True)


def _storage_card(seed: int):
    from repro.analysis.experiments import campaign_arm

    card, _events, _bad = campaign_arm(
        "protected", experiment_id="E16", seed=seed, ticks=120
    )
    return json.dumps(card.to_json(), sort_keys=True)


class TestNoOpModeParity:
    def test_serving_scorecard_identical_off_vs_on(self, obs_state):
        obs.set_enabled(False)
        off = _serving_card(seed=3)
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        on = _serving_card(seed=3)
        assert off == on

    def test_storage_scorecard_identical_off_vs_on(self, obs_state):
        obs.set_enabled(False)
        off = _storage_card(seed=3)
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        on = _storage_card(seed=3)
        assert off == on

    def test_forensics_summary_present_even_when_off(self, obs_state):
        # first-corruption tracking is campaign bookkeeping, not obs:
        # the timeline must survive REPRO_OBS=off
        obs.set_enabled(False)
        payload = json.loads(_serving_card(seed=0))
        assert payload["first_corrupt_tick"]
        assert payload["detection_latency_ms"]


def _counting_trial(trial):
    obs.metrics.counter("parity_trial_ops_total").inc(5)
    obs.metrics.histogram(
        "parity_trial_lat_ms", buckets=(1.0, 10.0)
    ).observe(float(trial.index))
    return trial.index


class TestTelemetryLeakRegression:
    """Merged totals must be exactly n_trials x per-trial, any workers."""

    N_TRIALS = 8

    def _run(self, workers: int) -> tuple[float, int]:
        obs.metrics.reset()
        obs.tracer.reset()
        run_trials(_counting_trial, self.N_TRIALS, seed=5, workers=workers)
        total = obs.metrics.counter("parity_trial_ops_total").value()
        hist = obs.metrics.histogram(
            "parity_trial_lat_ms", buckets=(1.0, 10.0)
        ).state()
        return total, hist.count

    def test_counters_reset_between_trials(self, obs_state):
        obs.set_enabled(True)
        total, observations = self._run(workers=1)
        assert total == 5.0 * self.N_TRIALS
        assert observations == self.N_TRIALS

    def test_totals_independent_of_worker_count(self, obs_state):
        obs.set_enabled(True)
        serial = self._run(workers=1)
        pooled = self._run(workers=4)
        assert serial == pooled == (5.0 * self.N_TRIALS, self.N_TRIALS)

    def test_parent_state_survives_fan_out(self, obs_state):
        # metrics recorded before the fan-out must not be clobbered by
        # the per-trial resets happening in (possibly this) process
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        obs.metrics.counter("parity_pre_existing_total").inc(3)
        run_trials(_counting_trial, 4, seed=5, workers=1)
        assert obs.metrics.counter("parity_pre_existing_total").value() == 3.0
        assert obs.metrics.counter("parity_trial_ops_total").value() == 20.0

    def test_off_mode_runs_plain_path(self, obs_state):
        obs.set_enabled(False)
        obs.metrics.reset()
        results = run_trials(_counting_trial, 4, seed=5, workers=1)
        assert results == [0, 1, 2, 3]
        assert obs.metrics.counter("parity_trial_ops_total").value() == 0.0
