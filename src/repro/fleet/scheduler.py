"""Core-aware task scheduling with quarantine support: E10's §6.1 model.

§6.1: removing a machine is easy; "isolating a specific core could be
more challenging, because it undermines a scheduler assumption that all
machines of a specific type have identical resources."  This scheduler
models that burden explicitly on a columnar fleet: machines advertise
*slots* (one per online core); core quarantine shrinks a machine's slot
count, making the fleet heterogeneous; the scheduler tracks stranded
capacity and places around the holes.

It also implements the §6.1 speculation: optionally placing tasks whose
op mix avoids a quarantined core's implicated units back onto that core
("safe tasks"), recovering capacity at a measurable residual risk.

The campaign runners need only the first free cores in fleet order and
take them from :meth:`repro.campaign.Campaign.free_cores`, not from here.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.detection.quarantine import heuristic_safe_op_mix  # allowlisted in tests/test_invariants.py
from repro.fleet.columns import FleetColumns


@dataclasses.dataclass(frozen=True)
class Task:
    """A schedulable unit with an operation-mix profile."""

    task_id: str
    op_mix: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Placement:
    """One task bound to one core (flagging quarantine violations)."""

    task: Task
    core_id: str
    on_quarantined_core: bool = False


@dataclasses.dataclass
class ScheduleStats:
    """Scheduler outcome tallies for one placement round."""

    placed: int = 0
    unplaceable: int = 0
    placed_on_quarantined: int = 0
    slots_total: int = 0
    slots_stranded: int = 0

    @property
    def stranded_fraction(self) -> float:
        if self.slots_total == 0:
            return 0.0
        return self.slots_stranded / self.slots_total


class FleetScheduler:
    """Slot-per-core scheduler over a heterogeneous (post-quarantine)
    :class:`~repro.fleet.columns.FleetColumns` fleet (E10).  Free slots
    are consumed in flat core order."""

    def __init__(
        self,
        columns: FleetColumns,
        allow_safe_tasks: bool = False,
        implicated_units_by_core: dict[str, frozenset] | None = None,
    ):
        """
        Args:
            allow_safe_tasks: enable §6.1 safe-task placement on
                quarantined cores.
            implicated_units_by_core: which units confessions implicated
                per quarantined core (needed for safe-task decisions).
        """
        self.columns = columns
        self.allow_safe_tasks = allow_safe_tasks
        self.implicated_units_by_core = implicated_units_by_core or {}

    def schedule(
        self, tasks: Sequence[Task]
    ) -> tuple[list[Placement], ScheduleStats]:
        """Place each task on a free core slot, in flat core order.

        Returns placements plus capacity accounting.  One task per core
        slot (the scheduler's unit of capacity); a slot's id string is
        only built for a slot that takes a task.
        """
        columns = self.columns
        free_online = np.nonzero(columns.online)[0]
        free_quarantined = np.nonzero(~columns.online)[0].tolist()
        stats = ScheduleStats(
            slots_total=columns.n_cores, slots_stranded=len(free_quarantined)
        )
        placements: list[Placement] = []
        for index, task in enumerate(tasks):
            # free slots go first, one per task, so the i-th task takes
            # the i-th free slot for as long as they last
            if index < len(free_online):
                placements.append(
                    Placement(task, columns.core_id(int(free_online[index])))
                )
                stats.placed += 1
                continue
            placed = False
            if self.allow_safe_tasks:
                for position, flat in enumerate(free_quarantined):
                    core_id = columns.core_id(flat)
                    implicated = self.implicated_units_by_core.get(
                        core_id, frozenset()
                    )
                    if heuristic_safe_op_mix(implicated, task.op_mix):
                        free_quarantined.pop(position)
                        placements.append(
                            Placement(task, core_id, on_quarantined_core=True)
                        )
                        stats.placed += 1
                        stats.placed_on_quarantined += 1
                        placed = True
                        break
            if not placed:
                stats.unplaceable += 1
        return placements, stats

    def capacity(self) -> tuple[int, int]:
        """(online slots, total slots)."""
        return int(self.columns.online.sum()), self.columns.n_cores
