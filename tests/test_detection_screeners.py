"""Online and offline screeners."""

import numpy as np
import pytest

from repro.detection.offline import (
    DRAIN_CORESECONDS,
    TEMPERATURES_C,
    OfflineScreener,
    OfflineScreenerConfig,
)
from repro.detection.online import OnlineScreener
from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.environment import NOMINAL
from repro.silicon.sensitivity import ThermalSensitivity, VoltageMarginSensitivity
from repro.silicon.units import FunctionalUnit


def _gated_core(seed=0):
    """A defect that only fires with voltage margin eroded."""
    return Core(
        "scr/gated",
        defects=[
            StuckBitDefect(
                "volt", bit=7, base_rate=1e-7,
                sensitivity=VoltageMarginSensitivity(factor_per_50mv=50.0),
                unit=FunctionalUnit.ALU,
            )
        ],
        rng=np.random.default_rng(seed),
    )


def _loud_core(seed=0):
    return Core(
        "scr/loud",
        defects=[StuckBitDefect("loud", bit=3, base_rate=5e-3,
                                unit=FunctionalUnit.ALU)],
        rng=np.random.default_rng(seed),
    )


class TestOnlineScreener:
    def test_catches_loud_defect(self):
        assert OnlineScreener().screen_core(_loud_core()).confessed

    def test_misses_environment_gated_defect(self):
        assert not OnlineScreener().screen_core(_gated_core()).confessed


@pytest.fixture(scope="class")
def gated_screen():
    """One full-envelope screen of the gated core, started at NOMINAL:
    ``(core, result)``, shared by the tests that only read it."""
    core = _gated_core()
    core.set_environment(NOMINAL)
    screener = OfflineScreener(
        config=OfflineScreenerConfig(repetitions_per_point=1)
    )
    return core, screener.screen_core(core)


class TestOfflineScreener:
    def test_catches_environment_gated_defect(self, gated_screen):
        _core, result = gated_screen
        assert result.confessed
        # Confession happened at a named out-of-nominal condition.
        assert any("@" in name for name in result.failed_tests)

    def test_restores_environment_and_online_state(self, gated_screen):
        core, _result = gated_screen
        assert core.env == NOMINAL
        assert core.online

    def test_charges_drain_cost(self, gated_screen):
        _core, result = gated_screen
        assert result.drain_cost_coreseconds == DRAIN_CORESECONDS > 0

    def test_sweep_schedule_includes_stress_points(self):
        screener = OfflineScreener()
        points = screener.sweep_schedule()
        nominal_count = len(screener.dvfs.states) * len(TEMPERATURES_C)
        assert len(points) == nominal_count + 3  # 3 stress points

    def test_thermal_gated_defect_caught_by_temperature_sweep(self):
        core = Core(
            "scr/hot",
            defects=[
                StuckBitDefect(
                    "hot", bit=2, base_rate=5e-6,
                    sensitivity=ThermalSensitivity(factor_per_10c=8.0),
                    unit=FunctionalUnit.ALU,
                )
            ],
            rng=np.random.default_rng(3),
        )
        assert OfflineScreener().screen_core(core).confessed

