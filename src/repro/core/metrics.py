"""The §4 metrics, made computable.

The paper struggles to define useful CEE metrics and proposes three
candidates, each with a challenge.  This module implements the first
two against simulated ground truth plus the standard detection-quality
numbers the tradeoff discussion (§6) needs:

- incidence: "the fraction of cores (or machines) that exhibit CEEs"
  (challenge: depends on test coverage — so we report both ground-truth
  and *detected* incidence, and their gap is the coverage shortfall);
- age until onset (challenge: depends on how long you can wait — so the
  estimator takes an observation horizon and reports censoring).

The third, the rate and nature of application-visible corruptions, is
what the propagation (E4) and campaign rows (E15–E18) measure directly.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Iterable, Mapping, Sequence

from repro import obs


@dataclasses.dataclass(frozen=True)
class Confusion:
    """Detector quality against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0


def confusion(
    ground_truth: Mapping[str, bool], flagged: Iterable[str]
) -> Confusion:
    """Score a set of flagged core ids against ground truth.

    Args:
        ground_truth: core id → is actually mercurial.
        flagged: core ids the detector marked.
    """
    flagged_set = set(flagged)
    tp = fp = fn = tn = 0
    for core_id, mercurial in ground_truth.items():
        if core_id in flagged_set:
            if mercurial:
                tp += 1
            else:
                fp += 1
        else:
            if mercurial:
                fn += 1
            else:
                tn += 1
    return Confusion(tp, fp, fn, tn)


def publish_confusion(confusion: Confusion, detector: str = "fleet") -> None:
    """Publish one detector's confusion counts to the obs registry.

    Replaces the old pattern of each campaign keeping its own ad-hoc
    tally dicts: gauges (last write wins) because a confusion matrix is
    a *state* of the trial, not an accumulating flow.
    """
    gauge = obs.metrics.gauge(
        "detection_confusion",
        help="detector confusion-matrix counts vs ground truth",
        unit="cores",
    )
    gauge.set(confusion.true_positives, detector=detector, cell="tp")
    gauge.set(confusion.false_positives, detector=detector, cell="fp")
    gauge.set(confusion.false_negatives, detector=detector, cell="fn")
    gauge.set(confusion.true_negatives, detector=detector, cell="tn")


def incidence_per_kmachine(n_mercurial_machines: int, n_machines: int) -> float:
    """Mercurial machines per 1000 machines.

    The paper reports "on the order of a few mercurial cores per several
    thousand machines", i.e. roughly 0.3–3 per 1000.
    """
    if n_machines <= 0:
        raise ValueError("need a positive machine count")
    return 1000.0 * n_mercurial_machines / n_machines


@dataclasses.dataclass(frozen=True)
class OnsetStats:
    """Age-until-onset summary with explicit censoring.

    ``censored`` counts defects whose onset lies beyond the observation
    horizon — the paper's challenge that "this metric depends on how
    long you can wait".
    """

    observed: int
    censored: int
    mean_days: float
    median_days: float
    p90_days: float

    @property
    def censored_fraction(self) -> float:
        total = self.observed + self.censored
        return self.censored / total if total else 0.0


def onset_stats(
    onsets_days: Sequence[float], horizon_days: float
) -> OnsetStats:
    """Summarize onset ages observable within ``horizon_days``."""
    visible = sorted(o for o in onsets_days if o <= horizon_days)
    censored = len(onsets_days) - len(visible)
    if not visible:
        return OnsetStats(0, censored, float("nan"), float("nan"), float("nan"))
    p90_index = min(len(visible) - 1, int(0.9 * len(visible)))
    return OnsetStats(
        observed=len(visible),
        censored=censored,
        mean_days=statistics.fmean(visible),
        median_days=statistics.median(visible),
        p90_days=visible[p90_index],
    )
