"""Detection economics: the §4/§6 three-way tradeoff, as a model.

"Mercurial-core detection is challenging because it inherently involves
a tradeoff between false negatives or delayed positives (leading to
failures and data corruption), false positives (leading to wasted cores
that are inappropriately isolated), and the non-trivial costs of the
detection processes themselves." (§6)

:class:`ScreeningEconomics` turns a screening policy (cadence, effort,
environment boost) plus a defect-rate distribution into: expected
time-to-detect, expected corrupt results emitted before detection, and
the compute bill — the quantities a fleet operator actually budgets.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

#: a core's op throughput per day, the denominator of the compute bill
OPS_PER_COREDAY = 5e9
#: production ops per core-day a live defect can corrupt
EXPOSED_OPS_PER_DAY = 2e7


@dataclasses.dataclass(frozen=True)
class ScreeningPolicy:
    """One point in screening-policy space."""

    period_days: float          # how often each core is screened
    corpus_ops: float           # effort per screen
    env_boost: float = 1.0      # offline stress multiplier (1.0 = online)
    drain_coreseconds: float = 0.0  # per screen (offline only)

    def __post_init__(self) -> None:
        # Unchecked, a negative period reports negative days-to-detect
        # and cost, a zero period divides by zero, and NaN runs through.
        for name, positive in (
            ("period_days", True),
            ("corpus_ops", False),
            ("env_boost", True),
            ("drain_coreseconds", False),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                bound = ">" if positive else ">="
                raise ValueError(
                    f"{name} must be finite and {bound} 0, got {value}"
                )

    def detection_probability(self, rate_per_op: float) -> float:
        """P(one screen catches a defect of the given observable rate)."""
        return 1.0 - math.exp(-rate_per_op * self.env_boost * self.corpus_ops)

    def expected_screens_to_detect(self, rate_per_op: float) -> float:
        p = self.detection_probability(rate_per_op)
        if p <= 0.0:
            return math.inf
        return 1.0 / p

    def expected_days_to_detect(self, rate_per_op: float) -> float:
        """Geometric waiting time in wall-clock days."""
        screens = self.expected_screens_to_detect(rate_per_op)
        if math.isinf(screens):
            return math.inf
        # On average the defect onsets mid-period, then waits.
        return (screens - 0.5) * self.period_days

    def compute_cost_per_coreday(self) -> float:
        """Fraction of a core's capacity spent being screened."""
        screen_ops_per_day = self.corpus_ops / self.period_days
        drain_ops = (
            self.drain_coreseconds / 86400.0 * OPS_PER_COREDAY / self.period_days
        )
        return (screen_ops_per_day + drain_ops) / OPS_PER_COREDAY


@dataclasses.dataclass(frozen=True)
class ExposureEstimate:
    """Damage before detection for one defect rate under one policy."""

    rate_per_op: float
    days_to_detect: float
    corruptions_before_detection: float


def exposure_before_detection(
    policy: ScreeningPolicy, rate_per_op: float
) -> ExposureEstimate:
    """Corrupt results the fleet absorbs before the screen catches on."""
    days = policy.expected_days_to_detect(rate_per_op)
    corruptions = (
        math.inf if math.isinf(days)
        else rate_per_op * EXPOSED_OPS_PER_DAY * days
    )
    return ExposureEstimate(rate_per_op, days, corruptions)


def policy_frontier(
    policies: list[ScreeningPolicy], rates_per_op: list[float]
) -> list[dict]:
    """Evaluate policies over a defect-rate distribution.

    Returns one row per policy with mean/median exposure and cost —
    the raw material of the §6 tradeoff table (experiment E9).
    """
    rows = []
    for policy in policies:
        exposures = [
            exposure_before_detection(policy, rate)
            for rate in rates_per_op
        ]
        finite_days = [e.days_to_detect for e in exposures
                       if not math.isinf(e.days_to_detect)]
        detected_fraction = len(finite_days) / len(exposures) if exposures else 0.0
        rows.append(
            {
                "policy": policy,
                "mean_days_to_detect": (
                    float(np.mean(finite_days)) if finite_days else math.inf
                ),
                "median_days_to_detect": (
                    float(np.median(finite_days)) if finite_days else math.inf
                ),
                "detectable_fraction": detected_fraction,
                "compute_cost_fraction": policy.compute_cost_per_coreday(),
            }
        )
    return rows
