"""Fault injection for software-resilience studies (§9).

"Similarly, we could develop fault injectors for testing software
resilience on real hardware ... That prior work evaluated algorithms
using fault injection, a technique that does not require access to a
large fleet."

Unlike :mod:`repro.silicon.defects` — which models *hardware* failure
modes statistically — the injector is an experimenter's tool: it wraps
any core and perturbs exactly the operation occurrences you ask for,
deterministically, so a campaign can measure a program's susceptibility
surface (which dynamic operation, when corrupted, produces which
symptom) the way Guan et al. [11] did for sorting.

Usage::

    injector = FaultInjector(core, plan=InjectionPlan(at_op_index=123))
    result = work(injector)          # exactly op #123 is corrupted

    campaign = InjectionCampaign(work, reference_core)
    report = campaign.run(n_sites=200, rng=rng)
    print(report.render())
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, TYPE_CHECKING

import numpy as np

from repro.silicon.core import Core

if TYPE_CHECKING:  # annotation-only: keeps silicon below workloads
    from repro.workloads.base import CoreLike, WorkloadResult


def flip_random_bit(value, rng: np.random.Generator):
    """Default transform: flip one random bit (lane) of the result."""
    if isinstance(value, tuple):
        if not value:
            return value
        lane = int(rng.integers(len(value)))
        lanes = list(value)
        lanes[lane] = lanes[lane] ^ (1 << int(rng.integers(64)))
        return tuple(lanes)
    if isinstance(value, int):
        return value ^ (1 << int(rng.integers(64)))
    return value


@dataclasses.dataclass
class InjectionPlan:
    """What to corrupt.

    Attributes:
        at_op_index: the dynamic operation index (0-based, counted over
            the wrapped core's execution stream) whose result gets
            transformed.  None disables injection (dry run).
        ops: restrict injection to these mnemonics; None = any.
        transform: result transform; default flips one random bit.
    """

    at_op_index: int | None = None
    ops: frozenset | None = None
    transform: Callable = flip_random_bit


class FaultInjector:
    """A transparent ``CoreLike`` wrapper with surgical injection."""

    def __init__(
        self,
        inner: CoreLike,
        plan: InjectionPlan,
        rng: np.random.Generator | None = None,
    ):
        self.inner = inner
        self.core_id = f"inject({inner.core_id})"
        self.plan = plan
        # documented fallback; campaigns pass a trial-derived rng
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.op_index = -1
        self.injected = False
        self.injected_op: str | None = None

    def execute(self, op: str, *operands):
        """Forward to the wrapped core, perturbing the planned site."""
        result = self.inner.execute(op, *operands)
        if self.plan.ops is not None and op not in self.plan.ops:
            return result
        self.op_index += 1
        if self.plan.at_op_index is not None and \
                self.op_index == self.plan.at_op_index and not self.injected:
            self.injected = True
            self.injected_op = op
            return self.plan.transform(result, self.rng)
        return result

    def golden(self, op: str, *operands):
        """Defect-free semantics via the wrapped core."""
        return self.inner.golden(op, *operands)


class InjectionOutcome(enum.Enum):
    """What one injected fault did to the program under test."""

    BENIGN = "benign"                # output identical anyway (masked)
    DETECTED = "detected"            # app-level check caught it
    CRASHED = "crashed"              # program crashed
    SILENT_CORRUPTION = "silent"     # wrong output, nothing noticed


@dataclasses.dataclass
class SusceptibilityReport:
    """Aggregate of one injection campaign."""

    total_sites: int
    sampled: int
    outcomes: dict[InjectionOutcome, int]
    silent_ops: list[str]  # which mnemonics produced silent corruption

    def fraction(self, outcome: InjectionOutcome) -> float:
        """Share of sampled faults with the given outcome."""
        if self.sampled == 0:
            return 0.0
        return self.outcomes.get(outcome, 0) / self.sampled

    @property
    def sdc_fraction(self) -> float:
        """The headline number of [11]-style studies."""
        return self.fraction(InjectionOutcome.SILENT_CORRUPTION)

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"injection campaign: {self.sampled} faults over "
            f"{self.total_sites} dynamic operations",
        ]
        for outcome in InjectionOutcome:
            lines.append(
                f"  {outcome.value:10s} {self.outcomes.get(outcome, 0):5d} "
                f"({self.fraction(outcome):.1%})"
            )
        if self.silent_ops:
            from collections import Counter

            top = Counter(self.silent_ops).most_common(3)
            lines.append(
                "  silent corruption concentrated in: "
                + ", ".join(f"{op} x{count}" for op, count in top)
            )
        return "\n".join(lines)


class InjectionCampaign:
    """Single-fault injection sweep over a deterministic work unit.

    Args:
        work: ``work(core) -> WorkloadResult`` — must be deterministic
            given the core (seed any randomness outside).

    Every trial runs on a fresh healthy core: each needs an
    un-perturbed substrate.
    """

    def __init__(self, work: Callable[[CoreLike], WorkloadResult]):
        self.work = work

    def count_sites(self, ops: frozenset | None = None) -> int:
        """Dry-run to count injectable dynamic operations."""
        probe = FaultInjector(
            Core("inject/base"), InjectionPlan(at_op_index=None, ops=ops)
        )
        # Count by running with an impossible index: op_index advances
        # only for ops matching the filter.
        probe.plan = InjectionPlan(at_op_index=-2, ops=ops)
        self.work(probe)
        return probe.op_index + 1

    def run(
        self,
        n_sites: int,
        rng: np.random.Generator,
        ops: frozenset | None = None,
    ) -> SusceptibilityReport:
        """Inject at ``n_sites`` random dynamic sites; classify each."""
        reference = self.work(Core("inject/base"))
        total_sites = self.count_sites(ops)
        if total_sites == 0:
            raise ValueError("work executes no injectable operations")
        outcomes: dict[InjectionOutcome, int] = {o: 0 for o in InjectionOutcome}
        silent_ops: list[str] = []
        sampled = 0
        for _ in range(n_sites):
            site = int(rng.integers(total_sites))
            injector = FaultInjector(
                Core("inject/base"),
                InjectionPlan(at_op_index=site, ops=ops),
                rng=np.random.default_rng(int(rng.integers(2**63))),
            )
            sampled += 1
            try:
                result = self.work(injector)
            except Exception:
                outcomes[InjectionOutcome.CRASHED] += 1
                continue
            if result.crashed:
                outcomes[InjectionOutcome.CRASHED] += 1
            elif result.app_detected:
                outcomes[InjectionOutcome.DETECTED] += 1
            elif result.output_digest != reference.output_digest:
                outcomes[InjectionOutcome.SILENT_CORRUPTION] += 1
                if injector.injected_op:
                    silent_ops.append(injector.injected_op)
            else:
                outcomes[InjectionOutcome.BENIGN] += 1
        return SusceptibilityReport(
            total_sites=total_sites,
            sampled=sampled,
            outcomes=outcomes,
            silent_ops=silent_ops,
        )
