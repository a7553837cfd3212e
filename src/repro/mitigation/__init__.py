"""Tolerating CEEs (paper §7): redundancy, checkpointing, self-checks.

- :mod:`repro.mitigation.redundancy` — DMR/TMR with retry and the
  unreliable-voter ablation.
- :mod:`repro.mitigation.checkpoint` — granular execute-check-commit
  with restart-on-another-core.
- :mod:`repro.mitigation.selfcheck` — the self-checking cipher
  (same-core and cross-core verification).
- :mod:`repro.mitigation.resilient` — ABFT matrix algorithms and
  resilient sorting.

End-to-end checks (the Colossus/Spanner patterns) live where they run:
E15's response validator, E16's verify-after-encrypt and CRC-framed
write-ahead log (:mod:`repro.storage`) and E18's ``e2e`` arm.
"""

from repro.mitigation.bft import (
    BftStats,
    Commit,
    QuorumError,
    QuorumReplicatedService,
)
from repro.mitigation.checkpoint import (
    CheckpointRuntime,
    CheckpointStats,
    GranuleFailedError,
)
from repro.mitigation.redundancy import (
    DmrExecutor,
    RedundancyExhaustedError,
    RedundantOutcome,
    TmrExecutor,
)
from repro.mitigation.selective import (
    ReplicationStats,
    SelectiveReplicator,
    Stage,
    full_tmr_baseline,
    impact_score,
    unprotected_baseline,
)
from repro.mitigation.selfcheck import (
    CheckedCipher,
    SelfCheckError,
    SelfCheckStats,
)

__all__ = [
    "BftStats",
    "Commit",
    "QuorumError",
    "QuorumReplicatedService",
    "ReplicationStats",
    "SelectiveReplicator",
    "Stage",
    "full_tmr_baseline",
    "impact_score",
    "unprotected_baseline",
    "CheckpointRuntime",
    "CheckpointStats",
    "GranuleFailedError",
    "DmrExecutor",
    "RedundancyExhaustedError",
    "RedundantOutcome",
    "TmrExecutor",
    "CheckedCipher",
    "SelfCheckError",
    "SelfCheckStats",
]
