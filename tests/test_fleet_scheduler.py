"""Core-aware scheduler."""

import numpy as np
import pytest

from repro.campaign import build_small_fleet
from repro.fleet.population import FleetBuilder
from repro.fleet.product import CpuProduct
from repro.fleet.scheduler import FleetScheduler, Task
from repro.silicon.units import FunctionalUnit, Op

CORES_PER_MACHINE = 16


def _small_fleet(n=4, seed=0):
    """The object fleet the campaigns hand the scheduler."""
    machines, _ = build_small_fleet(
        n, CORES_PER_MACHINE, seed, lambda *_: ()
    )
    return machines


class TestScheduling:
    def test_all_tasks_placed_with_capacity(self):
        machines = _small_fleet()
        scheduler = FleetScheduler(machines)
        tasks = [Task(f"t{i}") for i in range(10)]
        placements, stats = scheduler.schedule(tasks)
        assert stats.placed == 10
        assert stats.unplaceable == 0
        assert len({p.core_id for p in placements}) == 10

    def test_quarantined_core_not_scheduled(self):
        machines = _small_fleet()
        victim = machines[0].cores[0]
        victim.set_online(False)
        scheduler = FleetScheduler(machines)
        online, total = scheduler.capacity()
        assert total - online == 1
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)]
        )
        assert stats.unplaceable == 1
        assert victim.core_id not in {p.core_id for p in placements}

    def test_stranded_fraction(self):
        machines = _small_fleet()
        total = sum(len(m.cores) for m in machines)
        for core in machines[0].cores:
            core.set_online(False)
        _, stats = FleetScheduler(machines).schedule([])
        assert stats.stranded_fraction == len(machines[0].cores) / total

    def test_exclude_core_ids_skips_those_slots(self):
        machines = _small_fleet()
        scheduler = FleetScheduler(machines)
        excluded = {machines[0].cores[0].core_id,
                    machines[0].cores[1].core_id}
        _, total = scheduler.capacity()
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)],
            exclude_core_ids=excluded,
        )
        assert excluded.isdisjoint({p.core_id for p in placements})
        assert stats.slots_excluded == len(excluded)
        assert stats.unplaceable == len(excluded)

    def test_exclusion_composes_with_quarantine(self):
        machines = _small_fleet()
        quarantined = machines[0].cores[0]
        quarantined.set_online(False)
        excluded = machines[0].cores[1].core_id
        scheduler = FleetScheduler(machines)
        _, total = scheduler.capacity()
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)],
            exclude_core_ids={excluded},
        )
        placed_on = {p.core_id for p in placements}
        assert quarantined.core_id not in placed_on
        assert excluded not in placed_on
        assert stats.slots_excluded == 1  # quarantine counted separately


class TestSafeTaskPlacement:
    def test_safe_task_reclaims_quarantined_core(self):
        machines = _small_fleet()
        victim = machines[0].cores[0]
        victim.set_online(False)
        scheduler = FleetScheduler(
            machines,
            allow_safe_tasks=True,
            implicated_units_by_core={
                victim.core_id: frozenset({FunctionalUnit.VECTOR})
            },
        )
        online, total = scheduler.capacity()
        scalar_mix = {Op.ADD: 1.0}
        tasks = [Task(f"t{i}", op_mix=scalar_mix) for i in range(total)]
        placements, stats = scheduler.schedule(tasks)
        assert stats.placed == total
        assert stats.placed_on_quarantined == 1
        assert any(p.on_quarantined_core for p in placements)

    def test_unsafe_task_not_placed_on_quarantined_core(self):
        machines = _small_fleet()
        victim = machines[0].cores[0]
        victim.set_online(False)
        scheduler = FleetScheduler(
            machines,
            allow_safe_tasks=True,
            implicated_units_by_core={
                victim.core_id: frozenset({FunctionalUnit.VECTOR})
            },
        )
        _, total = scheduler.capacity()
        vector_mix = {Op.VADD: 1.0}
        tasks = [Task(f"t{i}", op_mix=vector_mix) for i in range(total)]
        _, stats = scheduler.schedule(tasks)
        assert stats.placed_on_quarantined == 0
        assert stats.unplaceable == 1


class TestColumnarScheduler:
    """FleetColumns overload: identical placement, no Core objects."""

    def _both(self, n=4, seed=0):
        """A campaign fleet and a one-product builder fleet of the same
        shape: the same ids, core for core."""
        product = CpuProduct(
            "sim", "sched", CORES_PER_MACHINE, core_prevalence=0.0
        )
        columns = FleetBuilder(products=[product], seed=seed).build_columns(n)
        return _small_fleet(n, seed), columns

    def test_placements_match_object_overload(self):
        machines, columns = self._both()
        tasks = [Task(f"t{i}") for i in range(10)]
        obj_placements, obj_stats = FleetScheduler(machines).schedule(tasks)
        col_placements, col_stats = FleetScheduler(columns).schedule(tasks)
        assert [(p.task.task_id, p.core_id, p.on_quarantined_core)
                for p in obj_placements] == [
            (p.task.task_id, p.core_id, p.on_quarantined_core)
            for p in col_placements
        ]
        assert obj_stats == col_stats

    def test_capacity_matches_after_quarantine(self):
        machines, columns = self._both()
        victim_id = machines[0].cores[0].core_id
        machines[0].cores[0].set_online(False)
        columns.online[columns.core_index(victim_id)] = False
        assert FleetScheduler(machines).capacity() == (
            FleetScheduler(columns).capacity()
        )

    def test_index_array_exclusion(self):
        _, columns = self._both()
        scheduler = FleetScheduler(columns)
        exclude = np.array([0, 1], dtype=np.int64)
        total = columns.n_cores
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)], exclude_core_ids=exclude
        )
        assert stats.slots_excluded == 2
        assert stats.unplaceable == 2
        excluded_ids = {columns.core_id(0), columns.core_id(1)}
        assert excluded_ids.isdisjoint({p.core_id for p in placements})

    def test_bool_mask_exclusion_matches_ids(self):
        _, columns = self._both()
        ids = {columns.core_id(3), columns.core_id(7)}
        mask = np.zeros(columns.n_cores, dtype=bool)
        mask[[3, 7]] = True
        tasks = [Task(f"t{i}") for i in range(columns.n_cores)]
        by_mask = FleetScheduler(columns).schedule(tasks, exclude_core_ids=mask)
        by_ids = FleetScheduler(columns).schedule(tasks, exclude_core_ids=ids)
        assert [(p.core_id) for p in by_mask[0]] == [
            (p.core_id) for p in by_ids[0]
        ]
        assert by_mask[1] == by_ids[1]

    def test_bool_mask_shape_checked(self):
        _, columns = self._both()
        with pytest.raises(ValueError, match="one entry per core"):
            FleetScheduler(columns).schedule(
                [], exclude_core_ids=np.zeros(3, dtype=bool)
            )

    def test_object_overload_rejects_index_arrays(self):
        machines, _ = self._both()
        with pytest.raises(TypeError, match="FleetColumns"):
            FleetScheduler(machines).schedule(
                [], exclude_core_ids=np.array([0], dtype=np.int64)
            )

    def test_safe_task_placement_matches(self):
        machines, columns = self._both()
        victim_id = machines[0].cores[0].core_id
        machines[0].cores[0].set_online(False)
        columns.online[columns.core_index(victim_id)] = False
        implicated = {victim_id: frozenset({FunctionalUnit.VECTOR})}
        scalar_mix = {Op.ADD: 1.0}
        total = columns.n_cores
        tasks = [Task(f"t{i}", op_mix=scalar_mix) for i in range(total)]
        obj = FleetScheduler(
            machines, allow_safe_tasks=True,
            implicated_units_by_core=implicated,
        ).schedule(tasks)
        col = FleetScheduler(
            columns, allow_safe_tasks=True,
            implicated_units_by_core=implicated,
        ).schedule(tasks)
        assert [(p.core_id, p.on_quarantined_core) for p in obj[0]] == [
            (p.core_id, p.on_quarantined_core) for p in col[0]
        ]
        assert obj[1] == col[1]
