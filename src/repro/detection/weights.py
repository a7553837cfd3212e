"""The suspicion-weight table: how much each signal kind is worth.

§6 ranks signal sources by how often they pan out: machine checks are
hard evidence, crashes are mostly software, "about half" of human
reports turn out to be real CEEs.  Every :class:`~repro.core.events.EventKind`
the infrastructure can emit has exactly one entry here — weight plus the
reasoning behind it — so the evidence model is auditable in one place
instead of scattered through the analyzer.  ``test_detection_signals``
enforces the completeness invariant: adding an :class:`EventKind`
without adding a weight is a test failure, not a silent 1.0 default.

Calibration conventions:

- weights are roughly "equivalent independent observations": a weight-3
  signal moves suspicion as much as three weight-1 signals;
- the default :class:`~repro.core.policy.PolicyConfig` quarantines at
  score 6.0, so a weight says how many repeats of that signal alone
  should condemn a core;
- *aggregate* signals (a breaker trip is already several correlated
  per-request failures) may exceed any single observation;
- among single observations, a confessed screening failure
  (``SCREEN_FAIL``) stays the ceiling — it is a targeted test failing
  on known inputs, the closest thing to a confession.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.core.events import EventKind


@dataclasses.dataclass(frozen=True)
class SuspicionWeight:
    """One signal kind's evidence value, with its justification."""

    weight: float
    rationale: str

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("suspicion weights must be positive")


#: the single source of truth for per-kind evidence weights
SUSPICION_WEIGHTS: Mapping[EventKind, SuspicionWeight] = {
    EventKind.BREAKER_TRIP: SuspicionWeight(
        4.0,
        "a serving circuit-breaker trip is already an aggregate of "
        "several correlated per-request failures on one core — "
        "recidivism pre-packaged (§6)",
    ),
    EventKind.SCREEN_FAIL: SuspicionWeight(
        3.0,
        "a targeted screening test failed on known inputs; the closest "
        "signal to a confession, and the strongest single observation",
    ),
    EventKind.ENCRYPT_VERIFY_FAIL: SuspicionWeight(
        3.0,
        "decrypt-on-a-second-core disagreed with the encrypting core, "
        "and a third core arbitrated the blame — a cross-core-confirmed "
        "miscomputation (the §5.2 unrecoverable-encryption incident, "
        "caught before the ack)",
    ),
    EventKind.INSTRCHECK_MISMATCH: SuspicionWeight(
        2.8,
        "a duplicated instruction stream disagreed with the primary "
        "execution (ITHICA same-core re-run or a MEEK checker core); a "
        "per-op divergence on known operands is nearly a confession, "
        "kept just under SCREEN_FAIL because a heterogeneous checker "
        "pair leaves residual ambiguity about *which* core miscomputed",
    ),
    EventKind.FLEETSCREEN_FAIL: SuspicionWeight(
        3.0,
        "a distilled per-unit screening battery failed on known inputs "
        "during a fleet-wide or ride-along screen; the same confession "
        "class as SCREEN_FAIL — the battery is a subset of the same "
        "corpus, selected for coverage, so a failure carries the same "
        "evidence value",
    ),
    EventKind.MACHINE_CHECK: SuspicionWeight(
        2.5,
        "logged MCEs are hard hardware evidence, though not always "
        "attributable to a specific defective core",
    ),
    EventKind.QUORUM_MISMATCH: SuspicionWeight(
        2.2,
        "a voted quorum read found one replica disagreeing with the "
        "majority; the divergent bytes implicate that replica's core "
        "directly (Spanner-style dual computation, §7)",
    ),
    EventKind.REPLAY_DIVERGENCE: SuspicionWeight(
        2.4,
        "a checkpoint-delimited granule replayed on a second core "
        "produced a different digest (RepTFD-style replay detection); "
        "cross-core confirmed like QUORUM_MISMATCH but coarser — the "
        "granule spans many ops, so attribution inside it is indirect",
    ),
    EventKind.WAL_CORRUPTION: SuspicionWeight(
        2.0,
        "a CRC-framed log record failed verification at replay; the "
        "frame was computed before the bytes crossed the replica core, "
        "so the corruption happened on that core's write path",
    ),
    EventKind.SCRUB_MISMATCH: SuspicionWeight(
        1.8,
        "background scrubbing found a replica's at-rest checksum "
        "diverging from the quorum; strong but slightly ambiguous — "
        "the scrub read itself also crossed the suspect core",
    ),
    EventKind.SELF_CHECK_FAILURE: SuspicionWeight(
        1.5,
        "an application-level self-check tripped; real evidence, but "
        "application checks also catch their own software bugs",
    ),
    EventKind.APP_REPORT: SuspicionWeight(
        1.2,
        "a CoreComplaintService-style RPC from an application; curated "
        "but second-hand",
    ),
    EventKind.DATA_CORRUPTION: SuspicionWeight(
        1.0,
        "data found corrupt at rest; attribution to the corrupting "
        "core is long after the fact",
    ),
    EventKind.USER_REPORT: SuspicionWeight(
        1.0,
        "human-filed suspicion: noisy, but §6 says about half pan out",
    ),
    EventKind.CRASH: SuspicionWeight(
        0.8,
        "process/kernel crashes are common and mostly software; only "
        "core-concentrated repeats matter",
    ),
    EventKind.SANITIZER: SuspicionWeight(
        0.7,
        "tool-chain sanitizer hits are usually genuine software bugs; "
        "the weakest automatable signal",
    ),
    EventKind.RETRY_BUDGET_EXHAUSTED: SuspicionWeight(
        0.6,
        "a shard drained its retry tokens: an aggregate of many failed "
        "attempts, but overload and chaos produce the same symptom, so "
        "per-core blame is thin — the per-attempt failures already "
        "carry their own heavier signals",
    ),
    EventKind.HEDGE_FIRED: SuspicionWeight(
        0.3,
        "the primary attempt looked slow enough to duplicate; latency "
        "tails are overwhelmingly benign stragglers, but §2 notes some "
        "mercurial cores compute *slowly* — only core-concentrated "
        "repeats matter",
    ),
    EventKind.SHARD_DEGRADED: SuspicionWeight(
        0.2,
        "a shard fell into a degradation tier (shed / serve-stale / "
        "fail-closed); cluster-level symptom with no core attribution "
        "of its own — kept for forensics timelines, near-zero evidence",
    ),
    EventKind.CHECKER_LAG_OVERFLOW: SuspicionWeight(
        0.2,
        "the MEEK check-lag queue overflowed and dropped entries; an "
        "operational breadcrumb about lost *coverage*, not evidence of "
        "miscomputation — logged so forensics can explain blind spots",
    ),
    EventKind.RIDEALONG_SKIPPED: SuspicionWeight(
        0.2,
        "a ride-along screening pass ran out of machine-second budget "
        "before reaching some cores; an operational breadcrumb about "
        "lost *coverage* (like CHECKER_LAG_OVERFLOW), not evidence of "
        "miscomputation — logged so forensics can explain blind spots",
    ),
    EventKind.AUTOSCALE_ACTION: SuspicionWeight(
        0.1,
        "the autoscaler added or drained a replica; an operational "
        "breadcrumb recorded so capacity changes appear in the event "
        "timeline, not hardware evidence",
    ),
}


def default_weights() -> dict[EventKind, float]:
    """The plain ``kind → weight`` mapping the analyzer consumes."""
    return {kind: entry.weight for kind, entry in SUSPICION_WEIGHTS.items()}


__all__ = [
    "SUSPICION_WEIGHTS",
    "SuspicionWeight",
    "default_weights",
]
