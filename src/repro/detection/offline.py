"""Offline screening: drain the core, sweep the envelope, interrogate.

§6: "Offline screening can be more intrusive and can be scheduled to
ensure coverage of all cores, and could involve exposing CPUs to
operating conditions (f, V, T) outside normal ranges.  However,
draining a workload from the core (or CPU) to be tested can be
expensive, especially if machine-specific storage must be migrated."

The offline screener pays an explicit drain cost, then runs the full
corpus at every DVFS state plus out-of-envelope stress points —
catching environment-gated defects the online screener can never see.
Sweep order matters ("the order in which the tests are run and swept
through the (f, V, T) space can impact time-to-failure", §4), so the
sweep schedule is explicit.

The columnar analogue of the envelope sweep is the ``env_boost``
multiplier in :mod:`repro.detection.fleetscreen`, which prices the
same out-of-envelope advantage without per-core object churn.
"""

from __future__ import annotations

import dataclasses

from repro.detection.corpus import TestCorpus
from repro.detection.screener import ScreenResult
from repro.silicon.core import Core
from repro.silicon.environment import DvfsTable, OperatingPoint, stress_points

#: capacity cost of migrating work off a core before testing (the §6
#: drain-cost concern)
DRAIN_CORESECONDS = 120.0
#: temperatures swept at each DVFS state; the sweep then adds the
#: out-of-envelope stress points
TEMPERATURES_C = (45.0, 85.0)


@dataclasses.dataclass
class OfflineScreenerConfig:
    """Tunables for drain-and-sweep screening.

    Attributes:
        repetitions_per_point: corpus repetitions at each operating
            point.
    """

    repetitions_per_point: int = 1


class OfflineScreener:
    """Full-corpus, full-envelope interrogation of one core at a time."""

    def __init__(self, config: OfflineScreenerConfig | None = None):
        self.corpus = TestCorpus.standard()
        self.config = config or OfflineScreenerConfig()
        self.dvfs = DvfsTable()

    def sweep_schedule(self) -> list[OperatingPoint]:
        """The explicit (f, V, T) interrogation order."""
        points = list(self.dvfs.sweep(TEMPERATURES_C))
        points.extend(stress_points(self.dvfs))
        return points

    def screen_core(self, core: Core) -> ScreenResult:
        """Drain, sweep, test; restores the original operating point.

        The core is marked offline for the duration (it is drained),
        then returned to service unless it confessed — in which case
        the caller's policy decides.
        """
        original_env = core.env
        was_online = core.online
        core.set_online(True)  # screener may interrogate quarantined cores
        merged = ScreenResult(
            core_id=core.core_id,
            passed=True,
            drain_cost_coreseconds=DRAIN_CORESECONDS,
        )
        try:
            for point in self.sweep_schedule():
                core.set_environment(point)
                result = self.corpus.screen(
                    core, repetitions=self.config.repetitions_per_point
                )
                merged.tests_run += result.tests_run
                merged.ops_cost += result.ops_cost
                merged.machine_checks += result.machine_checks
                merged.failed_tests.extend(
                    f"{name}@{point.frequency_ghz:.1f}GHz/"
                    f"{point.voltage_v:.2f}V/{point.temperature_c:.0f}C"
                    for name in result.failed_tests
                )
                if not result.passed:
                    merged.passed = False
        finally:
            core.set_environment(original_env)
            core.set_online(was_online)
        return merged
