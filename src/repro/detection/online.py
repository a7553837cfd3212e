"""Online screening: spare-cycle testing of live cores.

§6: "Online screening, when it can be done in a way that does not
impact concurrent workloads, is free (except for power costs), but
cannot always provide complete coverage of all cores or all symptoms."

The online screener runs a cheap corpus opportunistically: each core
it screens gets a *duty cycle* worth of spare capacity.  It tests at
the machine's current operating point (it cannot sweep f/V/T — that is the
offline screener's privilege), so environment-gated defects can hide
from it indefinitely.

This screener walks :class:`~repro.silicon.core.Core` objects one at a
time; its fleet-scale counterpart over columnar fleets is
:mod:`repro.detection.fleetscreen` (vectorized passes, distilled
batteries, explicit machine-second budgets).
"""

from __future__ import annotations

from repro.detection.corpus import TestCorpus
from repro.detection.screener import ScreenResult
from repro.silicon.core import Core

#: fraction of a core-day of spare capacity each screened core gets
#: (0.01 = 1% of cycles devoted to tests, the knob §4 calls "how many
#: cycles devoted to testing")
DUTY_CYCLE = 0.01
#: calibration constant converting the duty cycle to an op budget
OPS_PER_COREDAY = 5e6


def ops_budget_per_core() -> int:
    """Ops one core may spend on tests in a single screen."""
    return int(DUTY_CYCLE * OPS_PER_COREDAY)


class OnlineScreener:
    """Spare-cycle screening of one live core at a time."""

    def __init__(self) -> None:
        self.corpus = TestCorpus.minimal()

    def screen_core(self, core: Core) -> ScreenResult:
        """Screen one core within its spare-cycle op budget."""
        ops_budget = ops_budget_per_core()
        corpus_cost = max(self.corpus.total_ops(), 1)
        repetitions = max(1, ops_budget // corpus_cost)
        result = self.corpus.screen(core, repetitions=repetitions)
        return result
