"""What one screen of one core found, and what it cost.

The online and offline screeners produce :class:`ScreenResult` records
that carry both the verdict and the *cost* — §6 is explicit that "the
non-trivial costs of the detection processes themselves" are part of
the tradeoff, so cost accounting is not optional.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class ScreenResult:
    """Outcome of screening one core.

    Attributes:
        core_id: the screened core.
        passed: no test failed (does NOT prove health — §4's coverage
            caveat; a pass is only evidence).
        failed_tests: names of tests that caught a wrong answer.
        tests_run: total test executions.
        ops_cost: primitive operations spent screening (the compute
            bill).
        drain_cost_coreseconds: capacity lost to draining the core
            for offline screening (0 for online).
        machine_checks: machine checks raised during screening (also a
            confession).
    """

    core_id: str
    passed: bool
    failed_tests: list[str] = dataclasses.field(default_factory=list)
    tests_run: int = 0
    ops_cost: int = 0
    drain_cost_coreseconds: float = 0.0
    machine_checks: int = 0

    @property
    def confessed(self) -> bool:
        """Did the core fail any test or raise a machine check?"""
        return bool(self.failed_tests) or self.machine_checks > 0
