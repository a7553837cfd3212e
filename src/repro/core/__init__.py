"""The paper's conceptual contribution, systematized.

- :mod:`repro.core.taxonomy` — §2 symptom classes in risk order.
- :mod:`repro.core.events` — observable events and the event log.
- :mod:`repro.core.confidence` — recidivism-based suspicion scoring.
- :mod:`repro.core.report` — the suspect-core complaint (RPC) service.
- :mod:`repro.core.triage` — the human investigation workflow.
- :mod:`repro.core.policy` — quarantine policy engine.
- :mod:`repro.core.metrics` — the §4 metrics, made computable.
"""

from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind, EventLog, Reporter
from repro.core.metrics import (
    Confusion,
    OnsetStats,
    confusion,
    incidence_per_kmachine,
    onset_stats,
)
from repro.core.policy import Action, Decision, PolicyConfig, QuarantinePolicy
from repro.core.report import Complaint, CoreComplaintService, SuspectCore
from repro.core.taxonomy import Symptom
from repro.core.triage import HumanTriageModel, Investigation, TriageOutcome

__all__ = [
    "SuspicionTracker",
    "CeeEvent",
    "EventKind",
    "EventLog",
    "Reporter",
    "Confusion",
    "OnsetStats",
    "confusion",
    "incidence_per_kmachine",
    "onset_stats",
    "Action",
    "Decision",
    "PolicyConfig",
    "QuarantinePolicy",
    "Complaint",
    "CoreComplaintService",
    "SuspectCore",
    "Symptom",
    "HumanTriageModel",
    "Investigation",
    "TriageOutcome",
]
