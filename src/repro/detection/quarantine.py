"""Isolation mechanisms: removing bad cores from service.

§6.1: "It is relatively simple for existing scheduling mechanisms to
remove a machine from the resource pool; isolating a specific core
could be more challenging, because it undermines a scheduler
assumption that all machines of a specific type have identical
resources.  Shalev et al. described a mechanism for removing a faulty
core from a running operating system [Core Surprise Removal]."

Two mechanisms, with the §6.1 cost difference made measurable:

- :class:`MachineQuarantine` — pull the whole machine: simple, wastes
  ``n_cores - 1`` healthy cores' capacity.
- :class:`CoreQuarantine` — surprise-remove a single core: preserves
  capacity, pays a migration cost for the tasks running there, and
  leaves the machine *heterogeneous* (the scheduler burden is modeled
  by :mod:`repro.fleet.scheduler`).

It also implements the speculative idea at the end of §6.1: running
*safe tasks* on a mercurial core whose defective unit a task's op mix
avoids, instead of stranding the capacity.
"""

from __future__ import annotations

import dataclasses

from repro import obs
from repro.fleet.columns import FleetColumns
from repro.silicon.units import unit_of


def _record_isolation(
    scope: str, target_id: str, mercurial: bool, running_tasks: int
) -> None:
    """Obs hook for isolation actions (rare)."""
    obs.metrics.counter(
        "detection_isolations_total",
        help="isolation actions, by scope (core = CSR-style, machine = "
             "whole box) and ground truth of the victim",
        unit="actions",
    ).inc(scope=scope, mercurial="yes" if mercurial else "no")
    with obs.tracer.span(
        "detection.quarantine", scope=scope, target=target_id,
        running_tasks=running_tasks,
    ):
        pass


#: core-seconds to migrate one running task off an isolated core
MIGRATION_CORESECONDS_PER_TASK = 30.0


@dataclasses.dataclass
class IsolationCost:
    """Accumulated capacity/migration cost of isolation actions."""

    cores_stranded: int = 0
    healthy_cores_stranded: int = 0
    migrations: int = 0
    migration_coreseconds: float = 0.0


class CoreQuarantine:
    """Single-core surprise removal (CSR-style)."""

    def __init__(self) -> None:
        self.cost = IsolationCost()
        self.removed: set[int] = set()

    def remove(
        self, columns: FleetColumns, flat: int, running_tasks: int = 0
    ) -> None:
        """Take one core out of service, migrating its tasks."""
        if flat in self.removed:
            return
        columns.online[flat] = False
        self.removed.add(flat)
        mercurial = bool(columns.mercurial[flat])
        self.cost.cores_stranded += 1
        if not mercurial:
            self.cost.healthy_cores_stranded += 1
        self.cost.migrations += running_tasks
        self.cost.migration_coreseconds += (
            running_tasks * MIGRATION_CORESECONDS_PER_TASK
        )
        _record_isolation(
            "core", columns.core_id(flat), mercurial, running_tasks
        )


class MachineQuarantine:
    """Whole-machine removal: the blunt instrument."""

    def __init__(self) -> None:
        self.cost = IsolationCost()
        self.removed_machines: set[int] = set()

    def remove(
        self, columns: FleetColumns, machine: int, running_tasks: int = 0
    ) -> None:
        """Take every core of one machine out of service."""
        if machine in self.removed_machines:
            return
        self.removed_machines.add(machine)
        start, stop = columns.machine_core_range(machine)
        columns.online[start:stop] = False
        n_mercurial = int(columns.mercurial[start:stop].sum())
        self.cost.cores_stranded += stop - start
        self.cost.healthy_cores_stranded += stop - start - n_mercurial
        self.cost.migrations += running_tasks
        self.cost.migration_coreseconds += (
            running_tasks * MIGRATION_CORESECONDS_PER_TASK
        )
        _record_isolation(
            "machine", columns.machine_id(machine), n_mercurial > 0,
            running_tasks,
        )


def heuristic_safe_op_mix(
    implicated_units: frozenset, op_mix: dict[str, float]
) -> bool:
    """Unit-avoidance heuristic: mix is safe if it avoids implicated units.

    It uses only observable information (which tests failed), never the
    simulator's knowledge of the defect's targeting.
    """
    exposure = sum(
        fraction
        for op, fraction in op_mix.items()
        if unit_of(op) in implicated_units
    )
    return exposure <= 0.0
