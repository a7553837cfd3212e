"""Human triage model."""

import numpy as np
import pytest

from repro.core.triage import HumanTriageModel, TriageOutcome


def make_triage(seed=0, **kwargs):
    return HumanTriageModel(np.random.default_rng(seed), **kwargs)


class TestFiling:
    def test_cee_incidents_filed_more_often(self):
        triage = make_triage(
            p_flag_given_core_incident=0.6, p_false_positive_signal=0.1
        )
        cee = sum(triage.files_suspect(True) for _ in range(2000))
        noise = sum(triage.files_suspect(False) for _ in range(2000))
        assert cee / 2000 == pytest.approx(0.6, abs=0.05)
        assert noise / 2000 == pytest.approx(0.1, abs=0.03)

    def test_misattribution_rate(self):
        triage = make_triage(p_misattribute=0.2)
        right = sum(triage.attributed_core_is_right() for _ in range(2000))
        assert right / 2000 == pytest.approx(0.8, abs=0.04)


class TestInvestigation:
    def test_stochastic_mercurial_mostly_confirms(self):
        triage = make_triage(p_confess_given_mercurial=0.9)
        for index in range(100):
            triage.investigate(f"c{index}", core_is_mercurial=True,
                               started_days=float(index))
        assert triage.outcome_fractions()[TriageOutcome.CONFIRMED] > 0.8

    def test_healthy_never_confirms(self):
        triage = make_triage()
        for index in range(100):
            triage.investigate(f"c{index}", core_is_mercurial=False,
                               started_days=float(index))
        fractions = triage.outcome_fractions()
        assert fractions[TriageOutcome.CONFIRMED] == 0.0
        assert fractions[TriageOutcome.FALSE_ACCUSATION] > 0.0

    def test_confession_test_overrides_stochastic_model(self):
        triage = make_triage()
        record = triage.investigate(
            "c0", core_is_mercurial=True, started_days=0.0,
            confession_test=lambda: True, attempts=5,
        )
        assert record.outcome is TriageOutcome.CONFIRMED
        assert record.attempts == 1

    def test_failed_confession_on_mercurial_is_unreproducible(self):
        triage = make_triage()
        record = triage.investigate(
            "c0", core_is_mercurial=True, started_days=0.0,
            confession_test=lambda: False, attempts=3,
        )
        assert record.outcome is TriageOutcome.UNREPRODUCIBLE

    def test_failed_confession_on_healthy_is_false_accusation(self):
        triage = make_triage()
        record = triage.investigate(
            "c0", core_is_mercurial=False, started_days=0.0,
            confession_test=lambda: False,
        )
        assert record.outcome is TriageOutcome.FALSE_ACCUSATION

    def test_duration_within_configured_bounds(self):
        triage = make_triage(investigation_days=(3.0, 5.0))
        record = triage.investigate("c0", True, 0.0)
        assert 3.0 <= record.duration_days <= 5.0

    def test_outcome_fractions_sum_to_one(self):
        triage = make_triage()
        for index in range(50):
            triage.investigate(f"c{index}", index % 2 == 0, float(index))
        assert sum(triage.outcome_fractions().values()) == pytest.approx(1.0)

    def test_empty_model_fractions_zero(self):
        assert all(v == 0.0 for v in make_triage().outcome_fractions().values())

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            make_triage(p_misattribute=1.5)
