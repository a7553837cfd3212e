"""Black-box defect characterization."""

import numpy as np
import pytest

from repro.detection.characterize import (
    characterize,
    probe_operations,
    recover_trigger_gate,
    synthesize_regression_test,
)
from repro.silicon.core import Core
from repro.silicon.defects import (
    MachineCheckDefect,
    OperandPatternDefect,
    SboxPermutationDefect,
    StuckBitDefect,
)
from repro.silicon.units import FunctionalUnit, Op


def _healthy():
    return Core("char/h", rng=np.random.default_rng(0))


def _gated(mask=0x30, value=0x20, seed=0):
    return Core(
        "char/gated",
        defects=[OperandPatternDefect("d", mask=mask, value=value,
                                      error=1 << 9, base_rate=1.0,
                                      ops=(Op.MUL,))],
        rng=np.random.default_rng(seed),
    )


class TestProbing:
    def test_healthy_core_shows_no_failures(self):
        findings = probe_operations(
            _healthy(), np.random.default_rng(0), probes_per_op=100
        )
        assert all(f.failures == 0 and f.machine_checks == 0
                   for f in findings)

    def test_stuck_bit_implicates_only_its_unit(self):
        core = Core(
            "char/stuck",
            defects=[StuckBitDefect("d", bit=7, base_rate=0.2,
                                    unit=FunctionalUnit.MUL_DIV)],
            rng=np.random.default_rng(1),
        )
        profile = characterize(core, probes_per_op=200)
        assert profile.implicated_units == frozenset({FunctionalUnit.MUL_DIV})

    def test_machine_check_defect_counted(self):
        core = Core(
            "char/mce",
            defects=[MachineCheckDefect("d", base_rate=0.3, ops=(Op.ADD,))],
            rng=np.random.default_rng(2),
        )
        findings = probe_operations(
            core, np.random.default_rng(0), probes_per_op=100
        )
        assert findings[0].op == Op.ADD and findings[0].machine_checks > 0

    def test_sbox_defect_found_by_exhaustion_scale_probing(self):
        core = Core(
            "char/sbox", defects=[SboxPermutationDefect("d")],
            rng=np.random.default_rng(3),
        )
        profile = characterize(core, probes_per_op=600)
        assert FunctionalUnit.CRYPTO in profile.implicated_units


class TestGateRecovery:
    def test_recovers_exact_mask_and_value(self):
        core = _gated(mask=0x30, value=0x20)
        profile = characterize(core, probes_per_op=600)
        assert profile.trigger_mask == 0x30
        assert profile.trigger_value == 0x20

    def test_no_gate_for_random_defect(self):
        core = Core(
            "char/random",
            defects=[StuckBitDefect("d", bit=3, base_rate=0.15,
                                    unit=FunctionalUnit.ALU)],
            rng=np.random.default_rng(4),
        )
        profile = characterize(core, probes_per_op=200)
        assert profile.trigger_mask is None

    def test_empty_failing_operands_returns_none(self):
        assert recover_trigger_gate(
            _healthy(), Op.MUL, [], np.random.default_rng(0)
        ) is None


class TestRegressionSynthesis:
    def test_synthesized_test_is_decisive(self):
        core = _gated()
        profile = characterize(core, probes_per_op=600)
        test = synthesize_regression_test(profile)
        assert test is not None
        assert not test.run(core)       # catches the defective core
        assert test.run(_healthy())     # passes a healthy one

    def test_gated_test_catches_reliably_where_probing_was_lucky(self):
        """The whole point: probing hits the gate ~6% of the time, the
        synthesized test hits it 100% of the time."""
        core = _gated()
        profile = characterize(core, probes_per_op=600)
        test = synthesize_regression_test(profile)
        for _ in range(5):
            assert not test.run(core)

    def test_profile_without_failures_yields_none(self):
        profile = characterize(_healthy(), probes_per_op=50)
        assert synthesize_regression_test(profile) is None
