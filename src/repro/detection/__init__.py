"""Detection and isolation of mercurial cores (paper §6).

The pieces:

- :mod:`repro.detection.corpus` — the screening-test corpus (ISA
  torture programs + real-library tests) and the targeted-test
  workflow for newly root-caused defect modes.
- :mod:`repro.detection.online` / :mod:`repro.detection.offline` —
  spare-cycle screening vs drain-and-sweep interrogation, each
  returning a :class:`~repro.detection.screener.ScreenResult`.
- :mod:`repro.detection.signals` — crash/MCE/sanitizer log analysis
  into per-core suspicion.
- :mod:`repro.detection.quarantine` — core- and machine-level
  isolation with cost accounting, plus safe-task analysis (§6.1).
- :mod:`repro.detection.fleetscreen` — SiliFuzz-style corpus
  distillation, vectorized whole-fleet screening over the columnar
  substrate, and budgeted ride-along screening in scheduler spare
  cycles.
"""

from repro.detection.characterize import (
    DefectProfile,
    OpFinding,
    characterize,
    probe_operations,
    recover_trigger_gate,
    synthesize_regression_test,
)
from repro.detection.corpus import ScreeningTest, TestCorpus, make_targeted_test
from repro.detection.fleetscreen import (
    DistilledBattery,
    FleetScreener,
    FleetScreenResult,
    RideAlongCampaign,
    RideAlongConfig,
    RideAlongReport,
    RideAlongScreener,
    distill,
    full_battery,
)
from repro.detection.offline import OfflineScreener, OfflineScreenerConfig
from repro.detection.online import OnlineScreener
from repro.detection.quarantine import (
    CoreQuarantine,
    IsolationCost,
    MachineQuarantine,
    heuristic_safe_op_mix,
)
from repro.detection.screener import ScreenResult
from repro.detection.signals import DEFAULT_WEIGHTS, SignalAnalyzer, SignalAnalyzerConfig

__all__ = [
    "DefectProfile",
    "OpFinding",
    "characterize",
    "probe_operations",
    "recover_trigger_gate",
    "synthesize_regression_test",
    "ScreeningTest",
    "TestCorpus",
    "make_targeted_test",
    "DistilledBattery",
    "FleetScreener",
    "FleetScreenResult",
    "RideAlongCampaign",
    "RideAlongConfig",
    "RideAlongReport",
    "RideAlongScreener",
    "distill",
    "full_battery",
    "OfflineScreener",
    "OfflineScreenerConfig",
    "OnlineScreener",
    "CoreQuarantine",
    "IsolationCost",
    "MachineQuarantine",
    "heuristic_safe_op_mix",
    "ScreenResult",
    "DEFAULT_WEIGHTS",
    "SignalAnalyzer",
    "SignalAnalyzerConfig",
]
