"""Core-aware task scheduling with quarantine support.

§6.1: removing a machine is easy; "isolating a specific core could be
more challenging, because it undermines a scheduler assumption that all
machines of a specific type have identical resources."  This scheduler
models that burden explicitly: machines advertise *slots* (one per
online core); core quarantine shrinks a machine's slot count, making
the fleet heterogeneous; the scheduler tracks stranded capacity and bin
packs around the holes.

It also implements the §6.1 speculation: optionally placing tasks whose
op mix avoids a quarantined core's implicated units back onto that core
("safe tasks"), recovering capacity at a measurable residual risk.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Collection, Sequence

import numpy as np

from repro.detection.quarantine import heuristic_safe_op_mix  # allowlisted in tests/test_invariants.py
from repro.fleet.columns import FleetColumns
from repro.fleet.machine import Machine
from repro.silicon.core import Core


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
    slots_excluded: int = 0

    @property
    def stranded_fraction(self) -> float:
        if self.slots_total == 0:
            return 0.0
        return self.slots_stranded / self.slots_total


class FleetScheduler:
    """Slot-per-core scheduler over a heterogeneous (post-quarantine) fleet.

    Works on either substrate: the campaigns' ``Machine`` lists or a
    :class:`~repro.fleet.columns.FleetColumns` fleet (E10).  Placement order
    is identical across substrates — free slots are consumed in flat
    core order — so results don't depend on the representation.
    """

    def __init__(
        self,
        machines: Sequence[Machine] | FleetColumns,
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
        if isinstance(machines, FleetColumns):
            self.columns: FleetColumns | None = machines
            self.machines: list[Machine] = []
        else:
            self.columns = None
            self.machines = list(machines)
        self.allow_safe_tasks = allow_safe_tasks
        self.implicated_units_by_core = implicated_units_by_core or {}

    def _all_cores(self) -> list[Core]:
        return [core for machine in self.machines for core in machine.cores]  # allowlisted in tests/test_invariants.py

    def _exclude_mask(
        self,
        exclude_core_ids: Collection[str] | np.ndarray | None,
    ) -> np.ndarray:
        """Columnar exclusion mask from ids *or* flat index arrays.

        Callers operating on columns pass numpy integer indices (or a
        boolean mask) straight through — no Core objects, no id-string
        materialization.  String collections still work for callers
        carrying quarantine sets keyed by core id.
        """
        assert self.columns is not None
        n_cores = self.columns.n_cores
        mask = np.zeros(n_cores, dtype=bool)
        if exclude_core_ids is None:
            return mask
        if isinstance(exclude_core_ids, np.ndarray):
            if exclude_core_ids.dtype == bool:
                if exclude_core_ids.shape != (n_cores,):
                    raise ValueError(
                        "boolean exclude mask must have one entry per core"
                    )
                return exclude_core_ids.copy()
            mask[exclude_core_ids.astype(np.int64)] = True
            return mask
        for core_id in exclude_core_ids:
            flat = self.columns.core_index(core_id)
            if flat is not None:
                mask[flat] = True
        return mask

    def _scan_slots(
        self,
        exclude_core_ids: Collection[str] | np.ndarray | None,
    ) -> tuple[Any, list[Any], Callable[[Any], str], ScheduleStats]:
        """One pass over the substrate: free online slots and
        quarantine-stranded slots (each in flat core order), how to name
        a slot, and the capacity tallies.  A slot is a ``Core`` on an
        object fleet and a flat index on columns, whose id string is
        only built for a slot that takes a task."""
        stats = ScheduleStats()
        columns = self.columns
        if columns is not None:
            excluded = self._exclude_mask(exclude_core_ids)
            stranded = ~columns.online & ~excluded
            stats.slots_total = columns.n_cores
            stats.slots_excluded = int(excluded.sum())
            stats.slots_stranded = int(stranded.sum())
            return (
                np.nonzero(columns.online & ~excluded)[0],
                np.nonzero(stranded)[0].tolist(),
                lambda flat: columns.core_id(int(flat)),
                stats,
            )
        if isinstance(exclude_core_ids, np.ndarray):
            raise TypeError(
                "index-array exclusion needs a FleetColumns scheduler; "
                "object fleets take core-id collections"
            )
        exclude = frozenset(exclude_core_ids or ())
        free_online: list[Core] = []
        free_quarantined: list[Core] = []
        for core in self._all_cores():
            stats.slots_total += 1
            if core.core_id in exclude:
                stats.slots_excluded += 1
            elif core.online:
                free_online.append(core)
            else:
                stats.slots_stranded += 1
                free_quarantined.append(core)
        return (
            free_online, free_quarantined,
            operator.attrgetter("core_id"), stats,
        )

    def schedule(
        self,
        tasks: Sequence[Task],
        exclude_core_ids: Collection[str] | np.ndarray | None = None,
    ) -> tuple[list[Placement], ScheduleStats]:
        """Place each task on a free core slot; round-robin over machines.

        Returns placements plus capacity accounting.  One task per core
        slot (the scheduler's unit of capacity).

        Args:
            exclude_core_ids: cores the caller has already committed
                elsewhere (e.g. serving replicas being re-placed after
                a quarantine, which must not land back on an occupied
                or suspect core).  Excluded slots are accounted
                separately from quarantine-stranded ones.  On the
                columnar substrate this also accepts a numpy integer
                index array (flat core indices) or a per-core boolean
                mask — no ``Core`` objects are materialized either way.
        """
        free_online, free_quarantined, core_id_of, stats = self._scan_slots(
            exclude_core_ids
        )
        placements: list[Placement] = []
        for index, task in enumerate(tasks):
            # free slots go first, one per task, so the i-th task takes
            # the i-th free slot for as long as they last
            if index < len(free_online):
                placements.append(
                    Placement(task, core_id_of(free_online[index]))
                )
                stats.placed += 1
                continue
            placed = False
            if self.allow_safe_tasks:
                for position, slot in enumerate(free_quarantined):
                    core_id = core_id_of(slot)
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
        free_online, _stranded, _core_id_of, stats = self._scan_slots(None)
        return len(free_online), stats.slots_total
