"""repro — a reproduction of "Cores that don't count" (HotOS '21).

A simulation and defense framework for silent Corrupt Execution Errors
(CEEs) caused by "mercurial" CPU cores.  See README.md for the tour and
DESIGN.md for the system inventory and experiment index.

Subpackages:

- :mod:`repro.silicon` — simulated cores, functional units, defect
  models, operating environment, aging, and a small ISA + VM.
- :mod:`repro.workloads` — from-scratch production-like software
  (compression, hashing, AES, copying, locking, vector kernels,
  B-tree database, filesystem with GC) routed through simulated cores.
- :mod:`repro.core` — the paper's conceptual contribution systematized:
  CEE taxonomy, events, metrics, suspicion scoring, report service,
  triage, quarantine policy.
- :mod:`repro.detection` — online and offline screeners, signal
  analysis, test corpus, quarantine mechanisms, fleet-scale screening.
- :mod:`repro.mitigation` — redundant execution, checkpoint/restart,
  a self-checking cipher, ABFT-style resilient algorithms and
  instruction-level checking.
- :mod:`repro.fleet` — machines, population synthesis, scheduler,
  and the discrete-event fleet simulator.
- :mod:`repro.analysis` — statistics, detection economics, experiment
  registry, and text renderers for the paper's figure and tables.
- :mod:`repro.serving` — simulated RPC service over fleet cores with
  CEE-hardening (validation, retries, hedging, breakers) campaigns.
- :mod:`repro.storage` — quorum-replicated KV store whose bytes cross
  fleet silicon, with scrub/repair and chaos campaigns.
- :mod:`repro.engine` — deterministic parallel trial execution.
- :mod:`repro.obs` — unified observability: metrics registry, trace
  spans, exporters, and corruption-forensics timelines (see
  OBSERVABILITY.md).
"""

__version__ = "1.0.0"
