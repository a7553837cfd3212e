"""Quarantine policy: turning suspicion into action.

§6 frames detection as "a tradeoff between false negatives or delayed
positives (leading to failures and data corruption), false positives
(leading to wasted cores that are inappropriately isolated), and the
non-trivial costs of the detection processes themselves."  The policy
engine makes that tradeoff explicit and tunable:

- low suspicion  → keep monitoring;
- medium         → schedule targeted retesting (cheap, reversible);
- high / confessed → quarantine the core;
- several bad cores on one machine → quarantine the machine;
- a capacity guard caps the fraction of the fleet that may be stranded
  by false positives.
"""

from __future__ import annotations

import collections
import dataclasses
import enum

from repro.core.events import machine_of


class Action(enum.Enum):
    """What the quarantine policy decided to do about one core."""

    NONE = "none"
    MONITOR = "monitor"
    RETEST = "retest"
    QUARANTINE_CORE = "quarantine_core"
    QUARANTINE_MACHINE = "quarantine_machine"


@dataclasses.dataclass(frozen=True)
class PolicyConfig:
    """Tunable thresholds; defaults favour few false positives.

    Attributes:
        monitor_threshold: suspicion score to start watching a core.
        retest_threshold: score to schedule confession testing.
        quarantine_threshold: score to quarantine without a confession.
        require_confession_below: below this score a confession (failed
            confession test) is required before quarantining.
        machine_core_limit: quarantined cores on one machine at which
            the whole machine is pulled (suggests a chip-level or
            platform problem rather than a single mercurial core).
        max_quarantined_fraction: capacity guard — refuse new core
            quarantines beyond this fraction of the visible fleet.
    """

    monitor_threshold: float = 1.0
    retest_threshold: float = 2.0
    quarantine_threshold: float = 6.0
    require_confession_below: float = 6.0
    machine_core_limit: int = 3
    max_quarantined_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not (
            self.monitor_threshold
            <= self.retest_threshold
            <= self.quarantine_threshold
        ):
            raise ValueError("thresholds must be monotonically ordered")
        if self.machine_core_limit < 1:
            raise ValueError("machine_core_limit must be >= 1")
        if not 0.0 < self.max_quarantined_fraction <= 1.0:
            raise ValueError("max_quarantined_fraction must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class Decision:
    """One policy decision: the action taken on a core, and why."""

    core_id: str
    action: Action
    reason: str


class QuarantinePolicy:
    """Stateful policy engine over suspicion scores and confessions."""

    def __init__(self, config: PolicyConfig | None = None,
                 fleet_cores: int = 1) -> None:
        self.config = config or PolicyConfig()
        self.fleet_cores = max(fleet_cores, 1)
        self.quarantined: set[str] = set()
        self.quarantined_machines: set[str] = set()
        self._per_machine: collections.Counter = collections.Counter()

    @property
    def capacity_exhausted(self) -> bool:
        limit = self.config.max_quarantined_fraction * self.fleet_cores
        return len(self.quarantined) >= limit

    def decide(
        self,
        core_id: str,
        score: float,
        confessed: bool = False,
    ) -> Decision:
        """Decide the next action for one core.

        Args:
            score: current suspicion score (from
                :class:`~repro.core.confidence.SuspicionTracker`).
            confessed: a confession test has reproduced a failure.
        """
        config = self.config
        machine_id = machine_of(core_id)
        if core_id in self.quarantined or machine_id in self.quarantined_machines:
            return Decision(core_id, Action.NONE, "already quarantined")

        wants_quarantine = confessed or score >= config.quarantine_threshold
        if not confessed and score < config.require_confession_below:
            wants_quarantine = False

        if wants_quarantine:
            if self.capacity_exhausted:
                return Decision(
                    core_id,
                    Action.RETEST,
                    "capacity guard: quarantine budget exhausted, keep retesting",
                )
            self.quarantined.add(core_id)
            self._per_machine[machine_id] += 1
            if self._per_machine[machine_id] >= config.machine_core_limit:
                self.quarantined_machines.add(machine_id)
                return Decision(
                    core_id,
                    Action.QUARANTINE_MACHINE,
                    f"{self._per_machine[machine_id]} bad cores on {machine_id}",
                )
            reason = "confession" if confessed else "score over threshold"
            return Decision(core_id, Action.QUARANTINE_CORE, reason)

        if score >= config.retest_threshold:
            return Decision(core_id, Action.RETEST, "suspicious; extract confession")
        if score >= config.monitor_threshold:
            return Decision(core_id, Action.MONITOR, "weak signal; watch")
        return Decision(core_id, Action.NONE, "background noise")
