"""Quarantine policy engine."""

import pytest

from repro.core.events import machine_of
from repro.core.policy import Action, PolicyConfig, QuarantinePolicy


def make_policy(**overrides):
    defaults = dict(
        monitor_threshold=1.0,
        retest_threshold=2.0,
        quarantine_threshold=6.0,
        require_confession_below=6.0,
        machine_core_limit=2,
        max_quarantined_fraction=0.5,
    )
    defaults.update(overrides)
    return QuarantinePolicy(PolicyConfig(**defaults), fleet_cores=100)


class TestDecisions:
    def test_background_noise_no_action(self):
        assert make_policy().decide("m0/c0", 0.5).action is Action.NONE

    def test_weak_signal_monitored(self):
        assert make_policy().decide("m0/c0", 1.5).action is Action.MONITOR

    def test_suspicious_core_retested(self):
        assert make_policy().decide("m0/c0", 3.0).action is Action.RETEST

    def test_confession_quarantines_at_any_score(self):
        decision = make_policy().decide("m0/c0", 2.5, confessed=True)
        assert decision.action is Action.QUARANTINE_CORE
        assert "confession" in decision.reason

    def test_high_score_needs_no_confession(self):
        decision = make_policy().decide("m0/c0", 10.0)
        assert decision.action is Action.QUARANTINE_CORE

    def test_below_confession_bar_without_confession_retests(self):
        decision = make_policy(
            quarantine_threshold=6.0, require_confession_below=6.0
        ).decide("m0/c0", 5.0)
        assert decision.action is Action.RETEST

    def test_already_quarantined_is_noop(self):
        policy = make_policy()
        policy.decide("m0/c0", 10.0)
        assert policy.decide("m0/c0", 10.0).action is Action.NONE


class TestMachineEscalation:
    def test_multiple_bad_cores_pull_the_machine(self):
        policy = make_policy(machine_core_limit=2)
        first = policy.decide("m7/c0", 10.0)
        second = policy.decide("m7/c1", 10.0)
        assert first.action is Action.QUARANTINE_CORE
        assert second.action is Action.QUARANTINE_MACHINE
        assert "m7" in policy.quarantined_machines

    def test_cores_on_quarantined_machine_are_noop(self):
        policy = make_policy(machine_core_limit=1)
        policy.decide("m7/c0", 10.0)
        assert policy.decide("m7/c1", 10.0).action is Action.NONE


class TestCapacityGuard:
    def test_guard_blocks_quarantine_when_budget_spent(self):
        # budget: 1% of 100 cores = 1 core
        policy = QuarantinePolicy(
            PolicyConfig(max_quarantined_fraction=0.01), fleet_cores=100
        )
        first = policy.decide("m0/c0", 10.0)
        assert first.action is Action.QUARANTINE_CORE
        second = policy.decide("m1/c0", 10.0)
        assert second.action is Action.RETEST
        assert "capacity guard" in second.reason


class TestConfigValidation:
    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            PolicyConfig(monitor_threshold=5.0, retest_threshold=2.0)

    def test_machine_limit_positive(self):
        with pytest.raises(ValueError):
            PolicyConfig(machine_core_limit=0)

    def test_fraction_in_range(self):
        with pytest.raises(ValueError):
            PolicyConfig(max_quarantined_fraction=0.0)

    def test_machine_of_convention(self):
        assert machine_of("m0017/c05") == "m0017"
