"""Isolation mechanisms and safe-task analysis."""

import numpy as np

from repro.detection.quarantine import (
    CoreQuarantine,
    MachineQuarantine,
    heuristic_safe_op_mix,
)
from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit, Op


def _bad_core(seed=0):
    return Core(
        "q/bad",
        defects=[StuckBitDefect("d", bit=1, base_rate=1e-3,
                                unit=FunctionalUnit.VECTOR)],
        rng=np.random.default_rng(seed),
    )


class TestCoreQuarantine:
    def test_remove_takes_core_offline(self):
        quarantine = CoreQuarantine()
        core = _bad_core()
        quarantine.remove(core, running_tasks=3)
        assert not core.online
        assert quarantine.cost.cores_stranded == 1
        assert quarantine.cost.migrations == 3

    def test_double_remove_is_idempotent(self):
        quarantine = CoreQuarantine()
        core = _bad_core()
        quarantine.remove(core)
        quarantine.remove(core)
        assert quarantine.cost.cores_stranded == 1

    def test_healthy_strandings_tracked_separately(self):
        quarantine = CoreQuarantine()
        healthy = Core("q/h", rng=np.random.default_rng(0))
        quarantine.remove(healthy)
        assert quarantine.cost.healthy_cores_stranded == 1

    def test_restore(self):
        quarantine = CoreQuarantine()
        core = _bad_core()
        quarantine.remove(core)
        quarantine.restore(core)
        assert core.online
        assert quarantine.cost.cores_stranded == 0


class TestMachineQuarantine:
    def test_remove_strands_all_cores(self):
        quarantine = MachineQuarantine()
        cores = [Core(f"m0/c{i}", rng=np.random.default_rng(i)) for i in range(4)]
        cores[0] = _bad_core()
        quarantine.remove("m0", cores, running_tasks=10)
        assert quarantine.cost.cores_stranded == 4
        assert quarantine.cost.healthy_cores_stranded == 3
        assert all(not core.online for core in cores)


class TestSafeTasks:
    def test_heuristic_rejects_mix_touching_implicated_unit(self):
        implicated = frozenset({FunctionalUnit.VECTOR})
        assert heuristic_safe_op_mix(implicated, {Op.ADD: 1.0})
        assert not heuristic_safe_op_mix(implicated, {Op.VADD: 0.1, Op.ADD: 0.9})

    def test_heuristic_tolerance(self):
        implicated = frozenset({FunctionalUnit.VECTOR})
        mix = {Op.VADD: 0.05, Op.ADD: 0.95}
        assert heuristic_safe_op_mix(implicated, mix, tolerance=0.1)
