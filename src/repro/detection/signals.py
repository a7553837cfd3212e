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
crashes) are dropped — the analyzer cannot conjure attribution the
infrastructure lacks.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind
from repro.detection.weights import default_weights

#: default evidence weight per signal kind.  The authoritative table —
#: every kind, with the rationale for its weight — lives in
#: :mod:`repro.detection.weights`; this is the flat mapping the
#: analyzer consumes.
DEFAULT_WEIGHTS: Mapping[EventKind, float] = default_weights()


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
    ):
        """
        Args:
            tracker: suspicion store (created if omitted).
        """
        self.tracker = tracker or SuspicionTracker()
        self.config = config or SignalAnalyzerConfig()

    def ingest(self, event: CeeEvent) -> None:
        """Process one attributed event into suspicion."""
        if event.core_id is None:
            raise ValueError(
                "an unattributed event names no core; ingest_all drops it"
            )
        self.tracker.record(
            event.core_id,
            now_days=event.time_days,
            weight=self.config.weights.get(event.kind, 1.0),
            source=event.application,
        )

    def ingest_all(self, events: Iterable[CeeEvent]) -> None:
        """Process a batch of events into suspicion.  An unattributed
        event has no core to pin it on, so it is dropped here and never
        reaches :meth:`ingest`."""
        for event in events:
            if event.core_id is not None:
                self.ingest(event)

    def suspects(self, now_days: float, threshold: float = 2.0) -> list[tuple[str, float]]:
        """Current suspects, most suspicious first."""
        return self.tracker.suspects(now_days, threshold)
