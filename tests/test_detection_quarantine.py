"""Isolation mechanisms and safe-task analysis."""

from repro.detection.quarantine import (
    CoreQuarantine,
    MachineQuarantine,
    heuristic_safe_op_mix,
)
from repro.fleet.population import FleetBuilder
from repro.fleet.product import CpuProduct
from repro.silicon.units import FunctionalUnit, Op

BAD = 0  # flat index of the one core the fleet marks mercurial


def _fleet():
    """Two 4-core machines; core 0 is the (flagged) mercurial one."""
    product = CpuProduct("sim", "q", cores_per_machine=4, core_prevalence=0.0)
    columns = FleetBuilder(products=[product], seed=0).build_columns(2)
    columns.mercurial[BAD] = True
    return columns


class TestCoreQuarantine:
    def test_remove_takes_core_offline(self):
        quarantine = CoreQuarantine()
        columns = _fleet()
        quarantine.remove(columns, BAD, running_tasks=3)
        assert not columns.online[BAD]
        assert int(columns.online.sum()) == columns.n_cores - 1
        assert quarantine.cost.cores_stranded == 1
        assert quarantine.cost.healthy_cores_stranded == 0
        assert quarantine.cost.migrations == 3

    def test_double_remove_is_idempotent(self):
        quarantine = CoreQuarantine()
        columns = _fleet()
        quarantine.remove(columns, BAD)
        quarantine.remove(columns, BAD)
        assert quarantine.cost.cores_stranded == 1

    def test_healthy_strandings_tracked_separately(self):
        quarantine = CoreQuarantine()
        quarantine.remove(_fleet(), 5)
        assert quarantine.cost.healthy_cores_stranded == 1


class TestMachineQuarantine:
    def test_remove_strands_all_cores(self):
        quarantine = MachineQuarantine()
        columns = _fleet()
        quarantine.remove(columns, 0, running_tasks=10)
        assert quarantine.cost.cores_stranded == 4
        assert quarantine.cost.healthy_cores_stranded == 3
        assert not columns.online[:4].any()
        assert columns.online[4:].all()


class TestSafeTasks:
    def test_heuristic_rejects_mix_touching_implicated_unit(self):
        implicated = frozenset({FunctionalUnit.VECTOR})
        assert heuristic_safe_op_mix(implicated, {Op.ADD: 1.0})
        assert not heuristic_safe_op_mix(implicated, {Op.VADD: 0.1, Op.ADD: 0.9})
