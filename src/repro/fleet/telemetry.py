"""Fleet telemetry: machine-check logs and crash-dump evidence.

§2/§6: suspicion is built from "production incidents, core-dump
evidence, and failure-mode guesses", "crashes of user processes and
kernels and analysis of our existing logs of machine checks."

This module models the *quality* of those logs — the part the event
stream alone doesn't capture: machine-check records carry structured
fields (bank, address, core) with vendor-dependent completeness, and
crash dumps yield a core attribution only when the dying thread was
pinned.  The analyzers convert raw records into
:class:`~repro.core.events.CeeEvent` streams with honest attribution
gaps, and summarize per-core recidivism the way a fleet health
dashboard would.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from repro import obs
from repro.core.events import CeeEvent, EventKind, EventLog, Reporter


@dataclasses.dataclass(frozen=True)
class MceRecord:
    """One raw machine-check log entry."""

    time_days: float
    machine_id: str
    bank: int
    core_id: str | None       # None: the bank is not core-scoped
    corrected: bool           # corrected errors are noise; UC are signal


@dataclasses.dataclass(frozen=True)
class CrashDump:
    """One crash-dump summary from a dying process or kernel."""

    time_days: float
    machine_id: str
    process: str
    pinned_core_id: str | None   # attribution only if thread was pinned
    kernel: bool = False


class MceLogAnalyzer:
    """Turns raw MCE records into attributed events.

    Corrected errors (the vast majority on healthy machines) are
    dropped unless a core shows *excess* corrected-error recidivism —
    §6's signal analysis applied to the MCE log itself.
    """

    def __init__(self, corrected_excess_threshold: int = 10):
        self.corrected_excess_threshold = corrected_excess_threshold
        self._corrected_counts: collections.Counter = collections.Counter()
        self.records_seen = 0
        self._m_records = obs.metrics.counter(
            "telemetry_mce_records_total",
            help="raw machine-check log records analyzed",
            unit="records",
        )
        self._m_events = obs.metrics.counter(
            "telemetry_mce_events_total",
            help="signal-worthy MCE events appended to the log",
            unit="events",
        )

    def analyze(self, records: list[MceRecord], log: EventLog) -> int:
        """Append signal-worthy events to ``log``; returns events added."""
        added = 0
        for record in records:
            self.records_seen += 1
            if record.corrected:
                if record.core_id is None:
                    continue
                self._corrected_counts[record.core_id] += 1
                if self._corrected_counts[record.core_id] != \
                        self.corrected_excess_threshold:
                    continue
                detail = "corrected-error recidivism"
            else:
                detail = f"uncorrected MCE bank {record.bank}"
            log.append(
                CeeEvent(
                    time_days=record.time_days,
                    machine_id=record.machine_id,
                    core_id=record.core_id,
                    kind=EventKind.MACHINE_CHECK,
                    reporter=Reporter.AUTOMATED,
                    detail=detail,
                )
            )
            added += 1
        self._m_records.inc(len(records))
        self._m_events.inc(added)
        return added

    def corrected_recidivists(self) -> list[tuple[str, int]]:
        return [
            (core_id, count)
            for core_id, count in self._corrected_counts.most_common()
            if count >= self.corrected_excess_threshold
        ]


class CrashDumpAnalyzer:
    """Extracts core attributions from crash dumps.

    Only pinned threads yield a core id; the ``pinned_fraction`` of a
    fleet determines how often crashes are attributable at all — one
    reason the paper leans on screening rather than crashes alone.
    """

    def __init__(self, rng: np.random.Generator, pinned_fraction: float = 0.3):
        if not 0.0 <= pinned_fraction <= 1.0:
            raise ValueError("pinned_fraction must be a probability")
        self.rng = rng
        self.pinned_fraction = pinned_fraction
        self._m_dumps = obs.metrics.counter(
            "telemetry_crash_dumps_total",
            help="crash dumps converted to CRASH events, by whether "
                 "the dying thread was pinned (core-attributable)",
            unit="dumps",
        )

    def synthesize_dump(
        self,
        time_days: float,
        machine_id: str,
        core_id: str,
        process: str = "task",
        kernel: bool = False,
    ) -> CrashDump:
        """Model a crash on ``core_id``: attribution survives only if
        the thread was pinned."""
        pinned = self.rng.random() < self.pinned_fraction
        return CrashDump(
            time_days=time_days,
            machine_id=machine_id,
            process=process,
            pinned_core_id=core_id if pinned else None,
            kernel=kernel,
        )

    def analyze(self, dumps: list[CrashDump], log: EventLog) -> int:
        """Convert dumps to CRASH events; returns events added."""
        attributed = sum(1 for d in dumps if d.pinned_core_id is not None)
        self._m_dumps.inc(attributed, attributed="yes")
        self._m_dumps.inc(len(dumps) - attributed, attributed="no")
        for dump in dumps:
            log.append(
                CeeEvent(
                    time_days=dump.time_days,
                    machine_id=dump.machine_id,
                    core_id=dump.pinned_core_id,
                    kind=EventKind.CRASH,
                    reporter=Reporter.AUTOMATED,
                    application=dump.process,
                    detail="kernel crash" if dump.kernel else "process crash",
                )
            )
        return len(dumps)


@dataclasses.dataclass(frozen=True)
class HealthSummary:
    """Per-core dashboard row."""

    core_id: str
    machine_checks: int
    crashes: int
    app_reports: int

    @property
    def total_signals(self) -> int:
        return self.machine_checks + self.crashes + self.app_reports


def fleet_health_dashboard(
    log: EventLog, top_n: int = 10
) -> list[HealthSummary]:
    """Rank cores by attributed-signal volume (the triage queue)."""
    mce = log.per_core_counts(EventKind.MACHINE_CHECK)
    crash = log.per_core_counts(EventKind.CRASH)
    reports = log.per_core_counts(EventKind.APP_REPORT)
    all_cores = set(mce) | set(crash) | set(reports)
    summaries = [
        HealthSummary(
            core_id=core_id,
            machine_checks=mce.get(core_id, 0),
            crashes=crash.get(core_id, 0),
            app_reports=reports.get(core_id, 0),
        )
        for core_id in all_cores
    ]
    summaries.sort(key=lambda s: s.total_signals, reverse=True)
    return summaries[:top_n]
