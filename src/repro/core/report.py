"""The suspect-core complaint service.

"One of our particularly useful tools is a simple RPC service that
allows an application to report a suspect core or CPU.  Reports that
are evenly spread across cores probably are not CEEs; reports from
multiple applications that appear to be concentrated on a few cores
might well be CEEs, and become grounds for quarantining those cores,
followed by more careful checking." (§6)

:class:`CoreComplaintService` implements exactly that decision: it
accumulates reports and runs a concentration test — each core's report
count against a binomial null hypothesis of uniform spread — surfacing
cores whose counts are statistically inconsistent with background noise.
"""

from __future__ import annotations

import collections
import dataclasses
import math

from repro.core.events import CeeEvent, EventKind, EventLog, Reporter


@dataclasses.dataclass(frozen=True)
class Complaint:
    """One application-filed report against a core."""

    time_days: float
    application: str
    machine_id: str
    core_id: str
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class SuspectCore:
    """Concentration-test verdict for one core."""

    core_id: str
    reports: int
    applications: int
    p_value: float

    @property
    def grounds_for_quarantine(self) -> bool:
        """Paper's rule of thumb: concentrated + multi-application."""
        return self.p_value < 1e-4 and self.applications >= 2


def _binomial_tail(n: int, k: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p), exact summation.

    n is the total report count (moderate in practice); exact summation
    avoids approximation error in the far tail where decisions happen.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p >= 1.0:
        # every trial succeeds, so X == n >= k surely (and log1p(-1)
        # has no value to sum with)
        return 1.0
    tail = 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lgamma_n1 = math.lgamma(n + 1)
    for i in range(k, n + 1):
        log_term = (
            lgamma_n1
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * log_p
            + (n - i) * log_q
        )
        tail += math.exp(log_term)
    return min(tail, 1.0)


class CoreComplaintService:
    """Collects complaints and surfaces statistically suspect cores.

    Args:
        n_cores_visible: population of cores complaints could have come
            from — the uniform-null denominator.
        event_log: optional fleet event log that every complaint is also
            recorded into (as ``APP_REPORT`` events), so the complaint
            stream shows up in Fig. 1's automated series.
    """

    def __init__(self, n_cores_visible: int,
                 event_log: EventLog | None = None) -> None:
        if n_cores_visible <= 0:
            raise ValueError("need a positive visible-core population")
        self.n_cores_visible = n_cores_visible
        self.event_log = event_log
        self._complaints: list[Complaint] = []
        self._by_core: dict[str, list[Complaint]] = collections.defaultdict(list)
        # analyze()'s last answer, keyed on (report total, min_reports):
        # the log is append-only, so an unchanged total is an unchanged
        # answer
        self._analyzed: tuple[tuple[int, int], list[SuspectCore]] | None = None
        # quarantine_candidates()'s last answer, under analyze()'s key
        self._candidates: tuple[tuple[int, int], tuple[SuspectCore, ...]] | None = None

    def report(self, complaint: Complaint) -> CeeEvent | None:
        """File one complaint (the paper's RPC endpoint); returns the
        ``APP_REPORT`` event it logged, if there is a log."""
        self._complaints.append(complaint)
        self._by_core[complaint.core_id].append(complaint)
        if self.event_log is None:
            return None
        event = CeeEvent(
            time_days=complaint.time_days,
            machine_id=complaint.machine_id,
            core_id=complaint.core_id,
            kind=EventKind.APP_REPORT,
            reporter=Reporter.AUTOMATED,
            application=complaint.application,
            detail=complaint.detail,
        )
        self.event_log.append(event)
        return event

    def analyze(self, min_reports: int = 2) -> list[SuspectCore]:
        """Run the concentration test over all reported cores.

        Under the null (reports are background noise uniformly spread
        over ``n_cores_visible`` cores), each core's count is
        Binomial(total, 1/n_cores_visible).  Low p-value = concentration.
        Returns suspects sorted most-concentrated first (a fresh list;
        the verdicts are recomputed only when a report has arrived
        since the last call).
        """
        total = len(self._complaints)
        if total == 0:
            return []
        key = (total, min_reports)
        if self._analyzed is not None and self._analyzed[0] == key:
            return list(self._analyzed[1])
        p_uniform = 1.0 / self.n_cores_visible
        suspects = []
        for core_id, complaints in self._by_core.items():
            k = len(complaints)
            if k < min_reports:
                continue
            applications = len({c.application for c in complaints})
            p_value = _binomial_tail(total, k, p_uniform)
            suspects.append(
                SuspectCore(
                    core_id=core_id,
                    reports=k,
                    applications=applications,
                    p_value=p_value,
                )
            )
        suspects.sort(key=lambda s: s.p_value)
        self._analyzed = (key, suspects)
        return list(suspects)

    def quarantine_candidates(self) -> list[SuspectCore]:
        """Suspects meeting the paper's quarantine grounds (a fresh
        list, rebuilt only when a report has arrived since the last
        call)."""
        # analyze()'s key at its default min_reports
        key = (len(self._complaints), 2)
        if self._candidates is None or self._candidates[0] != key:
            self._candidates = (key, tuple(
                s for s in self.analyze(min_reports=2)
                if s.grounds_for_quarantine
            ))
        return list(self._candidates[1])
