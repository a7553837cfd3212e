"""Signal analysis: turning fleet noise into core suspicion.

§6: "We currently exploit several different kinds of automatable
'signals' indicating the possible presence of CEEs, especially when we
can detect core-specific patterns for these signals.  These include
crashes of user processes and kernels and analysis of our existing
logs of machine checks.  Code sanitizers in modern tool chains ...
also provide useful signals."

:class:`SignalAnalyzer` consumes :class:`~repro.core.events.EventLog`
entries and feeds a :class:`~repro.core.confidence.SuspicionTracker`
with kind-specific weights.  Events without core attribution (many
crashes) contribute a diluted weight to every core of the machine —
the analyzer cannot conjure attribution the infrastructure lacks.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind
from repro.detection.weights import default_weights

#: default evidence weight per signal kind.  The authoritative table —
#: every kind, with the rationale for its weight — lives in
#: :mod:`repro.detection.weights`; this is the flat mapping the
#: analyzer consumes.
DEFAULT_WEIGHTS: Mapping[EventKind, float] = default_weights()

#: weight multiplier when an event lacks core attribution and is
#: spread over the machine's cores
UNATTRIBUTED_DILUTION = 0.25


@dataclasses.dataclass
class SignalAnalyzerConfig:
    """Tunable weights and windows for suspicion scoring."""

    weights: Mapping[EventKind, float] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS)
    )


class SignalAnalyzer:
    """Feeds an event stream into per-core suspicion scores."""

    def __init__(
        self,
        tracker: SuspicionTracker | None = None,
        config: SignalAnalyzerConfig | None = None,
        cores_by_machine: Mapping[str, Sequence[str]] | None = None,
    ):
        """
        Args:
            tracker: suspicion store (created if omitted).
            cores_by_machine: machine id → core ids, used to spread
                unattributed signals; unattributed events on unknown
                machines are dropped (nothing to pin them on).
        """
        self.tracker = tracker or SuspicionTracker()
        self.config = config or SignalAnalyzerConfig()
        self.cores_by_machine = dict(cores_by_machine or {})

    def register_machine(self, machine_id: str, core_ids: Sequence[str]) -> None:
        self.cores_by_machine[machine_id] = list(core_ids)

    def ingest(self, event: CeeEvent) -> None:
        """Process one event into suspicion."""
        weight = self.config.weights.get(event.kind, 1.0)
        if event.core_id is not None:
            self.tracker.record(
                event.core_id,
                now_days=event.time_days,
                weight=weight,
                source=event.application,
            )
            return
        cores = self.cores_by_machine.get(event.machine_id)
        if not cores:
            return
        diluted = weight * UNATTRIBUTED_DILUTION / len(cores)
        for core_id in cores:
            self.tracker.record(
                core_id,
                now_days=event.time_days,
                weight=diluted,
                source=event.application,
            )

    def ingest_all(self, events) -> None:
        """Process a batch of events into suspicion.

        With no machine map there is nowhere to spread an unattributed
        event, so only attributed ones reach :meth:`ingest` (which would
        drop the rest one by one).
        """
        if not self.cores_by_machine:
            events = [event for event in events if event.core_id is not None]
        for event in events:
            self.ingest(event)

    def suspects(self, now_days: float, threshold: float = 2.0) -> list[tuple[str, float]]:
        """Current suspects, most suspicious first."""
        return self.tracker.suspects(now_days, threshold)
