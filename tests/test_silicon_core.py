"""Core behaviour."""

import numpy as np
import pytest

from repro.silicon.core import Core
from repro.silicon.defects import (
    MachineCheckDefect,
    SboxPermutationDefect,
    StuckBitDefect,
)
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.golden import (
    AES_SBOX,
    golden_cache,
    golden_execute,
)
from repro.silicon.units import Op
from repro.workloads.hashing import crc64, fnv1a


class TestHealthyCore:
    def test_execute_returns_golden(self, healthy_core):
        assert healthy_core.execute(Op.ADD, 2, 3) == 5

    def test_counts_ops(self, healthy_core):
        healthy_core.execute(Op.ADD, 1, 1)
        healthy_core.execute(Op.MUL, 2, 2)
        assert healthy_core.ops_executed == 2

    def test_no_corruptions_ever(self, healthy_core):
        for i in range(500):
            healthy_core.execute(Op.XOR, i, i * 3)
        assert healthy_core.corruptions_induced == 0

    def test_is_not_mercurial(self, healthy_core):
        assert not healthy_core.is_mercurial

    def test_golden_matches_execute(self, healthy_core):
        assert healthy_core.golden(Op.MUL, 6, 7) == healthy_core.execute(
            Op.MUL, 6, 7
        )


class TestMercurialCore:
    def _bad_core(self, rate=1.0):
        return Core(
            "t/bad",
            defects=[StuckBitDefect("d", bit=0, base_rate=rate, ops=(Op.ADD,))],
            rng=np.random.default_rng(0),
        )

    def test_corruption_counted(self):
        core = self._bad_core()
        assert core.execute(Op.ADD, 2, 2) == 5
        assert core.corruptions_induced == 1

    def test_untargeted_ops_clean(self):
        core = self._bad_core()
        assert core.execute(Op.MUL, 2, 2) == 4
        assert core.corruptions_induced == 0

    def test_effective_rate_reflects_defect(self):
        core = self._bad_core(rate=1e-3)
        assert core.effective_rate(Op.ADD) == pytest.approx(1e-3)
        assert core.effective_rate(Op.MUL) == 0.0

    def test_machine_check_propagates_and_counts(self):
        defect = MachineCheckDefect("d", base_rate=1.0, ops=(Op.LOAD,))
        core = Core("t/mce", defects=[defect], rng=np.random.default_rng(0))
        with pytest.raises(MachineCheckError):
            core.execute(Op.LOAD, 1)
        assert core.machine_checks_raised == 1

    def test_offline_core_refuses_work(self):
        core = self._bad_core()
        core.set_online(False)
        with pytest.raises(CoreOfflineError):
            core.execute(Op.ADD, 1, 1)

    def test_age_cannot_decrease(self, healthy_core):
        with pytest.raises(ValueError):
            healthy_core.advance_age(-1.0)


class TestCreditUntargeted:
    """Bulk accounting for op streams no defect of the core can touch."""

    ALU_STREAM = frozenset({Op.XOR, Op.SHR, Op.SHL})

    def _add_defect_core(self):
        return Core(
            "t/add",
            defects=[StuckBitDefect("d", bit=0, base_rate=1.0, ops=(Op.ADD,))],
            rng=np.random.default_rng(0),
        )

    @pytest.mark.usefixtures("kernels_on")
    def test_disjoint_stream_is_credited_in_one_step(self):
        for core in (Core("t/h"), self._add_defect_core()):
            assert core.credit_untargeted(self.ALU_STREAM, 40)
            assert core.ops_executed == 40

    def test_targeted_stream_is_refused_without_credit(self):
        core = self._add_defect_core()
        assert not core.credit_untargeted(frozenset({Op.XOR, Op.ADD}), 40)
        assert core.ops_executed == 0

    def test_memo_switch_off_forces_the_per_op_path(self):
        core = Core("t/h")
        with golden_cache(False):
            assert not core.credit_untargeted(self.ALU_STREAM, 40)
        assert core.ops_executed == 0

    def test_subclass_is_refused(self):
        class Traced(Core):
            __slots__ = ()

        assert not Traced("t/sub").credit_untargeted(self.ALU_STREAM, 40)

    @pytest.mark.usefixtures("kernels_on")
    def test_offline_core_raises_before_any_credit(self):
        core = Core("t/off")
        core.set_online(False)
        with pytest.raises(CoreOfflineError):
            core.credit_untargeted(self.ALU_STREAM, 4)
        assert core.ops_executed == 0
        with pytest.raises(CoreOfflineError):
            crc64(core, b"x")

    def test_offline_core_with_nothing_to_run_does_not_raise(self):
        # the per-op path on empty data never calls execute
        core = Core("t/off")
        core.set_online(False)
        assert not core.credit_untargeted(self.ALU_STREAM, 0)
        assert crc64(core, b"") == 0
        assert fnv1a(core, b"") == 0xCBF29CE484222325
        assert core.ops_executed == 0


@pytest.mark.usefixtures("kernels_on")
class TestCreditQuiet:
    """Bulk accounting for S-box stages whose bytes miss every swap."""

    def _swap_core(self, *extra):
        return Core(
            "t/swap",
            defects=[SboxPermutationDefect("d", swaps=((1, 2),)), *extra],
            rng=np.random.default_rng(0),
        )

    def test_missing_bytes_are_credited_in_one_step(self):
        for core in (Core("t/h"), self._swap_core()):
            assert core.credit_quiet(Op.SBOX, [0, 3, 255])
            assert core.ops_executed == 3

    def test_a_swapped_byte_is_refused_without_credit(self):
        core = self._swap_core()
        assert not core.credit_quiet(Op.SBOX, [0, 2])
        assert not core.credit_quiet(Op.INV_SBOX, [AES_SBOX[1]])
        assert core.ops_executed == 0

    def test_every_defect_must_be_quiet(self):
        core = self._swap_core(StuckBitDefect("s", bit=0, ops=(Op.SBOX,)))
        assert not core.credit_quiet(Op.SBOX, [0])
        assert core.credit_quiet(Op.INV_SBOX, [0])

    def test_memo_switch_off_forces_the_per_op_path(self):
        core = self._swap_core()
        with golden_cache(False):
            assert not core.credit_quiet(Op.SBOX, [0])
        assert core.ops_executed == 0

    def test_subclass_is_refused(self):
        class Traced(Core):
            __slots__ = ()

        assert not Traced("t/sub").credit_quiet(Op.SBOX, [0])

    def test_offline_core_raises_only_with_lookups_to_run(self):
        core = self._swap_core()
        core.set_online(False)
        with pytest.raises(CoreOfflineError):
            core.credit_quiet(Op.SBOX, [0])
        assert not core.credit_quiet(Op.SBOX, [])
        assert core.ops_executed == 0


class TestExecuteDispatchEdges:
    """``execute``'s not-targeted exit keeps ``golden_call``'s contract."""

    def _cores(self):
        return (
            Core("t/h"),
            Core(
                "t/bad",
                defects=[StuckBitDefect("d", bit=0, base_rate=1.0, ops=(Op.LOAD,))],
                rng=np.random.default_rng(0),
            ),
        )

    def test_unknown_op_keeps_the_golden_execute_message(self):
        with pytest.raises(KeyError) as reference:
            golden_execute("NOT_AN_OP", 1, 2)
        for core in self._cores():
            with pytest.raises(KeyError) as raised:
                core.execute("NOT_AN_OP", 1, 2)
            assert raised.value.args == reference.value.args

    def test_unhashable_operands_fall_back_to_the_uncached_path(self):
        for core in self._cores():
            assert core.execute(Op.VADD, [1, 2], [3, 4]) == (4, 6)
            assert core.execute(Op.COPY, [5, 6]) == (5, 6)

    def test_type_error_from_a_plain_op_propagates(self):
        for core in self._cores():
            with pytest.raises(TypeError):
                core.execute(Op.ADD, "a", 1)
            with pytest.raises(TypeError):
                core.execute(Op.GFMUL, "a", 1)
