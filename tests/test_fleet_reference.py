"""The production fleet tick, held against the scalar reference.

``FleetSimulator._tick`` (batched draws) and
``ScalarReferenceSimulator._tick`` (one draw per decision) consume the
RNG in different orders, so they cannot be compared event for event;
what must hold is that they sample the same campaign distribution.
This is the two-sample check of that claim.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.events import EventKind
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.reference import ScalarReferenceSimulator
from repro.fleet.simulator import FleetSimulator, SimulatorConfig

N_SEEDS = 128
N_PERMUTATIONS = 20_000
FAMILY_WISE_ALPHA = 1e-3

#: every kind either tick can emit
TICK_KINDS = (
    EventKind.MACHINE_CHECK,
    EventKind.SELF_CHECK_FAILURE,
    EventKind.APP_REPORT,
    EventKind.CRASH,
    EventKind.USER_REPORT,
    EventKind.SCREEN_FAIL,
)
STATISTICS = ("total_corruptions", "quarantined") + tuple(
    kind.name for kind in TICK_KINDS
)


def _fleet():
    """The parity-test fleet shape; build seed 24 because its 16
    mercurial cores carry every defect archetype, machine-check ones
    included, so all six event kinds fire."""
    boosted = tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * 40.0)
        for p in DEFAULT_PRODUCTS
    )
    return FleetBuilder(
        products=boosted, seed=24, deployment_window=(-700.0, 0.0)
    ).build_columns(150)


def _sample(simulator_cls, seeds, **config_overrides):
    """One row of STATISTICS per seed."""
    columns = _fleet()
    config = SimulatorConfig(
        horizon_days=60.0, warmup_days=0.0, **config_overrides
    )
    rows = []
    for seed in seeds:
        result = simulator_cls(columns.thaw(), config=config, seed=seed).run()
        kinds = [event.kind for event in result.events]
        assert set(kinds) <= set(TICK_KINDS)
        rows.append(
            [result.total_corruptions, len(result.quarantined_cores)]
            + [kinds.count(kind) for kind in TICK_KINDS]
        )
    return np.array(rows, dtype=float)


def _permutation_p_values(a, b):
    """Two-sided permutation test on the difference of means, one
    p-value per column; ``(1 + hits) / (1 + N)`` so p is never 0."""
    rng = np.random.default_rng(0)
    pooled = np.concatenate([a, b])
    n = len(a)
    in_a = np.zeros((N_PERMUTATIONS, len(pooled)), dtype=np.float32)
    in_a[:, :n] = 1.0
    in_a = rng.permuted(in_a, axis=1)
    sums_a = in_a @ pooled
    diffs = np.abs(sums_a / n - (pooled.sum(axis=0) - sums_a) / len(b))
    observed = np.abs(a.mean(axis=0) - b.mean(axis=0))
    hits = (diffs >= observed - 1e-9).sum(axis=0)
    return dict(zip(STATISTICS, (1 + hits) / (1 + N_PERMUTATIONS)))


def _rejected(p_values):
    """Bonferroni: reject where p < alpha / family size."""
    per_test = FAMILY_WISE_ALPHA / len(STATISTICS)
    return {name: p for name, p in p_values.items() if p < per_test}


PRODUCTION_SEEDS = range(1000, 1000 + N_SEEDS)
REFERENCE_SEEDS = range(2000, 2000 + N_SEEDS)


@pytest.fixture(scope="module")
def production():
    return _sample(FleetSimulator, PRODUCTION_SEEDS)


class TestProductionTickMatchesReference:
    def test_same_campaign_distribution(self, production):
        """128 fixed seeds per side on a parity-shaped fleet (150
        machines, x40 prevalence, 60 days); per statistic — total
        corruptions, quarantined cores, events of each kind — a
        two-sided permutation test on the difference of means, Bonferroni-
        corrected over the 8 statistics to a family-wise false-alarm
        rate of 1e-3.  Seeds and the permutation RNG are fixed, so the
        verdict is deterministic: 1e-3 bounds the chance that *these*
        seeds reject two ticks that really do sample one distribution.
        """
        reference = _sample(ScalarReferenceSimulator, REFERENCE_SEEDS)
        # every statistic is live on both sides
        assert (production.sum(axis=0) > 0).all()
        assert (reference.sum(axis=0) > 0).all()
        p_values = _permutation_p_values(production, reference)
        assert _rejected(p_values) == {}, p_values

    def test_the_check_can_fail(self, production):
        """Power: the same check catches a reference whose cores see
        50% more exposed operations a day."""
        skewed = _sample(
            ScalarReferenceSimulator, REFERENCE_SEEDS,
            exposed_ops_per_day=3e7,
        )
        rejected = _rejected(_permutation_p_values(production, skewed))
        assert "total_corruptions" in rejected
