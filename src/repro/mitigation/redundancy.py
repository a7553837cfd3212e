"""Redundant execution: DMR, TMR, and the unreliable-voter problem.

§3: "Detecting CEEs naively seems to imply a factor of two of extra
work.  Automatic correction seems to possibly require triple work
(e.g. via triple modular redundancy)."

§7: "one could run a computation on two cores, and if they disagree,
restart on a different pair of cores from a checkpoint", and "this
relies on the voting mechanism itself being reliable."

Implementations:

- :class:`DmrExecutor` — dual-modular: detect by disagreement, retry on
  a fresh pair (cost ≈ 2× plus retries).
- :class:`TmrExecutor` — triple-modular: majority vote (cost ≈ 3×).
  The vote can optionally be computed *on a core* (``voter_core``) to
  expose the paper's caveat: a defective voter can out-vote two healthy
  workers.

Both executors operate on deterministic work closures (``work(core) ->
WorkloadResult``) and compare output digests, which is how replicated
production systems actually compare results (bytes, not intents).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.silicon.core import Core
from repro.silicon.errors import MachineCheckError
from repro.silicon.units import Op
from repro.workloads.base import CoreLike, WorkloadResult


class RedundancyExhaustedError(RuntimeError):
    """No agreeing execution could be found within the retry budget."""


@dataclasses.dataclass
class RedundantOutcome:
    """Result of a redundant execution.

    Attributes:
        result: the agreed (or majority) result.
        executions: total single-core executions spent.
        disagreements: rounds where outputs differed.
        cores_used: core ids that participated.
        detected_corruption: a disagreement was observed (the CEE was
            caught rather than propagated).
    """

    result: WorkloadResult
    executions: int
    disagreements: int
    cores_used: list[str]
    detected_corruption: bool

    @property
    def cost_factor(self) -> float:
        """Work amplification relative to one unchecked execution."""
        return float(self.executions)


def _run_once(work: Callable[[CoreLike], WorkloadResult], core: Core) -> WorkloadResult | None:
    """Run work, converting machine checks into a None (fail-noisy)."""
    try:
        return work(core)
    except MachineCheckError:
        return None


#: core pairs DMR tries before giving up
DMR_MAX_ROUNDS = 3


class DmrExecutor:
    """Run twice, compare, retry elsewhere on disagreement."""

    def __init__(self, pool: Sequence[Core]):
        if len(pool) < 2:
            raise ValueError("DMR needs at least two cores")
        self.pool = list(pool)

    def run(self, work: Callable[[CoreLike], WorkloadResult]) -> RedundantOutcome:
        """Execute with dual redundancy.

        Raises:
            RedundancyExhaustedError: no agreeing pair within budget.
        """
        executions = 0
        disagreements = 0
        used: list[str] = []
        for round_index in range(DMR_MAX_ROUNDS):
            offset = 2 * round_index
            if offset + 1 >= len(self.pool):
                break
            core_a = self.pool[offset]
            core_b = self.pool[offset + 1]
            used.extend([core_a.core_id, core_b.core_id])
            result_a = _run_once(work, core_a)
            result_b = _run_once(work, core_b)
            executions += 2
            if result_a is None or result_b is None:
                disagreements += 1
                continue
            if result_a.output_digest == result_b.output_digest:
                return RedundantOutcome(
                    result=result_a,
                    executions=executions,
                    disagreements=disagreements,
                    cores_used=used,
                    detected_corruption=disagreements > 0,
                )
            disagreements += 1
        raise RedundancyExhaustedError(
            f"no agreement after {executions} executions "
            f"({disagreements} disagreements)"
        )


class TmrExecutor:
    """Run three times, majority-vote the digests.

    Args:
        pool: at least three cores; the first three are the workers.
        voter_core: if given, the majority vote's equality comparisons
            execute on this core — §7's "this relies on the voting
            mechanism itself being reliable" made testable.  If None,
            voting is host-side (a reliable voter).
    """

    def __init__(self, pool: Sequence[Core], voter_core: Core | None = None):
        if len(pool) < 3:
            raise ValueError("TMR needs at least three cores")
        self.pool = list(pool)
        self.voter_core = voter_core

    def _digests_equal(self, a: int, b: int) -> bool:
        if self.voter_core is None:
            return a == b
        return self.voter_core.execute(Op.BEQ, a, b) == 1

    def run(self, work: Callable[[CoreLike], WorkloadResult]) -> RedundantOutcome:
        """Execute with triple redundancy and majority voting.

        Raises:
            RedundancyExhaustedError: all three disagree (no majority).
        """
        workers = self.pool[:3]
        results = [_run_once(work, core) for core in workers]
        used = [core.core_id for core in workers]
        live = [r for r in results if r is not None]
        if len(live) < 2:
            raise RedundancyExhaustedError("too many machine checks for a vote")
        # Majority vote over digests.
        for i in range(len(live)):
            agreeing = [
                other
                for other in live
                if self._digests_equal(live[i].output_digest, other.output_digest)
            ]
            if len(agreeing) >= 2:
                disagreements = len(live) - len(agreeing) + (3 - len(live))
                return RedundantOutcome(
                    result=live[i],
                    executions=3,
                    disagreements=disagreements,
                    cores_used=used,
                    detected_corruption=disagreements > 0,
                )
        raise RedundancyExhaustedError("three-way disagreement; no majority")
