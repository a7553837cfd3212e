"""Symptom taxonomy."""

from repro.core.taxonomy import Symptom


class TestRiskOrdering:
    def test_four_classes_in_paper_order(self):
        order = tuple(sorted(Symptom, key=lambda s: s.risk_rank))
        assert order == (
            Symptom.WRONG_ANSWER_IMMEDIATE,
            Symptom.MACHINE_CHECK,
            Symptom.WRONG_ANSWER_LATE,
            Symptom.WRONG_ANSWER_UNDETECTED,
        )

    def test_risk_rank_is_one_based_and_increasing(self):
        ranks = [s.risk_rank for s in Symptom]
        assert ranks == [1, 2, 3, 4]

    def test_undetected_is_riskiest(self):
        assert Symptom.WRONG_ANSWER_UNDETECTED.risk_rank == 4
