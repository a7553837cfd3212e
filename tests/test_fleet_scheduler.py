"""Core-aware scheduler (E10's §6.1 model) on a columnar fleet."""

from repro.fleet.population import FleetBuilder
from repro.fleet.product import CpuProduct
from repro.fleet.scheduler import FleetScheduler, Task
from repro.silicon.units import FunctionalUnit, Op

CORES_PER_MACHINE = 16


def _small_fleet(n=4, seed=0):
    """A one-product fleet of ``n`` healthy 16-core machines."""
    product = CpuProduct(
        "sim", "sched", CORES_PER_MACHINE, core_prevalence=0.0
    )
    return FleetBuilder(products=[product], seed=seed).build_columns(n)


def _quarantine(columns, flat=0):
    """Take one core offline; returns its id."""
    columns.online[flat] = False
    return columns.core_id(flat)


class TestScheduling:
    def test_all_tasks_placed_with_capacity(self):
        scheduler = FleetScheduler(_small_fleet())
        tasks = [Task(f"t{i}") for i in range(10)]
        placements, stats = scheduler.schedule(tasks)
        assert stats.placed == 10
        assert stats.unplaceable == 0
        assert len({p.core_id for p in placements}) == 10

    def test_quarantined_core_not_scheduled(self):
        columns = _small_fleet()
        victim = _quarantine(columns)
        scheduler = FleetScheduler(columns)
        online, total = scheduler.capacity()
        assert total - online == 1
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)]
        )
        assert stats.unplaceable == 1
        assert victim not in {p.core_id for p in placements}

    def test_stranded_fraction(self):
        columns = _small_fleet()
        start, stop = columns.machine_core_range(0)
        columns.online[start:stop] = False
        _, stats = FleetScheduler(columns).schedule([])
        assert stats.stranded_fraction == (stop - start) / columns.n_cores


class TestSafeTaskPlacement:
    def _scheduler(self):
        columns = _small_fleet()
        victim = _quarantine(columns)
        return FleetScheduler(
            columns,
            allow_safe_tasks=True,
            implicated_units_by_core={
                victim: frozenset({FunctionalUnit.VECTOR})
            },
        )

    def test_safe_task_reclaims_quarantined_core(self):
        scheduler = self._scheduler()
        _, total = scheduler.capacity()
        scalar_mix = {Op.ADD: 1.0}
        tasks = [Task(f"t{i}", op_mix=scalar_mix) for i in range(total)]
        placements, stats = scheduler.schedule(tasks)
        assert stats.placed == total
        assert stats.placed_on_quarantined == 1
        assert any(p.on_quarantined_core for p in placements)

    def test_unsafe_task_not_placed_on_quarantined_core(self):
        scheduler = self._scheduler()
        _, total = scheduler.capacity()
        vector_mix = {Op.VADD: 1.0}
        tasks = [Task(f"t{i}", op_mix=vector_mix) for i in range(total)]
        _, stats = scheduler.schedule(tasks)
        assert stats.placed_on_quarantined == 0
        assert stats.unplaceable == 1
