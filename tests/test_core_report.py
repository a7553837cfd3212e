"""Complaint service and concentration analysis."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import report
from repro.core.events import EventKind, EventLog
from repro.core.report import Complaint, CoreComplaintService, _binomial_tail


def _complaint(core, app="app0", t=0.0):
    machine = core.rsplit("/", 1)[0]
    return Complaint(
        time_days=t, application=app, machine_id=machine, core_id=core
    )


class TestBinomialTail:
    def test_certainty_cases(self):
        assert _binomial_tail(10, 0, 0.5) == 1.0
        assert _binomial_tail(10, 11, 0.5) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @example(n=50, k_frac=0.1, p=0.02)
    @example(n=100, k_frac=0.03, p=0.001)
    @example(n=20, k_frac=0.5, p=0.5)
    @example(n=400, k_frac=1.0, p=1.0)
    def test_matches_scipy(self, n, k_frac, p):
        # The oracle is the exact rational tail, rounded once: scipy's
        # binom.sf is off by ~1e-4 relative in the far tail (n=47, k=21,
        # p=2.75e-15), where this sum is right.  With p = a/d,
        # P[X >= k] = sum C(n,i) a^i (d-a)^(n-i) / d^n, summed by Horner.
        k = round(k_frac * n)
        a, d = p.as_integer_ratio()
        numerator, a_pow = 0, a ** k
        for i in range(k, n + 1):
            numerator = numerator * (d - a) + math.comb(n, i) * a_pow
            a_pow *= a
        expected = numerator / d ** n
        # exact summation of up to 400 terms, each an exp of a 5-term
        # log: relative agreement, plus a floor where the tail underflows
        assert _binomial_tail(n, k, p) == pytest.approx(
            expected, rel=1e-9, abs=1e-300
        )

    def test_certain_success_has_tail_one(self):
        # p == 1 used to reach log1p(-1.0): "math domain error"
        for n, k in ((1, 1), (2, 2), (7, 3)):
            assert _binomial_tail(n, k, 1.0) == 1.0
        assert _binomial_tail(3, 4, 1.0) == 0.0


class TestComplaintService:
    def test_concentrated_reports_become_suspects(self):
        service = CoreComplaintService(n_cores_visible=1000)
        for index in range(6):
            service.report(_complaint("m1/c3", app=f"app{index % 2}", t=index))
        suspects = service.analyze()
        assert suspects[0].core_id == "m1/c3"
        assert suspects[0].p_value < 1e-6
        assert suspects[0].grounds_for_quarantine

    def test_spread_reports_are_dismissed(self):
        rng = np.random.default_rng(0)
        service = CoreComplaintService(n_cores_visible=1000)
        for index in range(60):
            core = f"m{rng.integers(100)}/c{rng.integers(10)}"
            service.report(_complaint(core, t=index))
        assert not service.quarantine_candidates()

    def test_single_application_not_quarantine_grounds(self):
        """Concentration from one app could be that app's bug."""
        service = CoreComplaintService(n_cores_visible=100000)
        for index in range(6):
            service.report(_complaint("m1/c3", app="only-app", t=index))
        suspect = service.analyze()[0]
        assert suspect.p_value < 1e-4
        assert not suspect.grounds_for_quarantine

    def test_min_reports_filter(self):
        service = CoreComplaintService(n_cores_visible=1000)
        service.report(_complaint("m1/c1"))
        assert service.analyze(min_reports=2) == []

    def test_reports_mirrored_into_event_log(self):
        log = EventLog()
        service = CoreComplaintService(n_cores_visible=10, event_log=log)
        event = service.report(_complaint("m0/c0"))
        assert list(log) == [event]
        assert [e for e in log if e.kind is EventKind.APP_REPORT]

    def test_empty_service_analyzes_empty(self):
        assert CoreComplaintService(n_cores_visible=10).analyze() == []

    def test_needs_positive_population(self):
        with pytest.raises(ValueError):
            CoreComplaintService(n_cores_visible=0)

    def test_lone_visible_core_analyzes(self):
        """One visible core makes the uniform null p == 1: every report
        lands on it with certainty, so nothing is concentrated."""
        service = CoreComplaintService(n_cores_visible=1)
        service.report(_complaint("m0/c0", app="a"))
        service.report(_complaint("m0/c0", app="b"))
        (suspect,) = service.analyze()
        assert suspect.p_value == 1.0
        assert not suspect.grounds_for_quarantine


class TestAnalyzeRecomputesOnlyOnNewReports:
    @pytest.fixture
    def tail_calls(self, monkeypatch):
        calls = []
        real = report._binomial_tail

        def counting(n, k, p):
            calls.append((n, k))
            return real(n, k, p)

        monkeypatch.setattr(report, "_binomial_tail", counting)
        return calls

    @staticmethod
    def _service():
        service = CoreComplaintService(n_cores_visible=1000)
        for index in range(4):
            service.report(_complaint("m1/c3", app=f"app{index % 2}"))
        for index in range(3):
            service.report(_complaint("m2/c0", app=f"app{index % 2}"))
        service.report(_complaint("m5/c5"))
        return service

    def test_unchanged_log_is_not_rescanned(self, tail_calls):
        service = self._service()
        first = service.analyze()
        assert tail_calls == [(8, 4), (8, 3)]
        second = service.analyze()
        assert len(tail_calls) == 2
        assert second == first and second is not first
        # the caller owns the list it got
        second.clear()
        assert service.analyze() == first
        assert [s.core_id for s in service.quarantine_candidates()] == [
            "m1/c3", "m2/c0"
        ]
        assert len(tail_calls) == 2

    def test_report_invalidates(self, tail_calls):
        service = self._service()
        before = service.analyze()
        service.report(_complaint("m5/c5", app="app1"))
        after = service.analyze()
        assert tail_calls[2:] == [(9, 4), (9, 3), (9, 2)]
        assert {s.core_id for s in after} == {"m1/c3", "m2/c0", "m5/c5"}
        # one more report under the same null dilutes every p-value
        assert after[0].p_value > before[0].p_value

    def test_candidates_rebuild_only_on_a_new_report(self, count_calls):
        service = self._service()
        analyzed = count_calls(CoreComplaintService, "analyze")
        first = service.quarantine_candidates()
        assert [s.core_id for s in first] == ["m1/c3", "m2/c0"]
        # the caller owns the list it got
        first.clear()
        second = service.quarantine_candidates()
        assert [s.core_id for s in second] == ["m1/c3", "m2/c0"]
        assert second is not service.quarantine_candidates()
        assert len(analyzed) == 1
        service.report(_complaint("m5/c5", app="app1"))
        service.quarantine_candidates()
        assert len(analyzed) == 2

    def test_min_reports_is_part_of_the_key(self, tail_calls):
        service = self._service()
        assert len(service.analyze()) == 2
        assert len(service.analyze(min_reports=4)) == 1
        assert len(service.analyze(min_reports=1)) == 3
        assert len(service.analyze()) == 2
