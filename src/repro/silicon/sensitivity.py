"""Environment sensitivity: how a defect's rate depends on (f, V, T).

The paper (§5): "Temperature, frequency, and voltage all play roles, but
their impact varies: e.g., some mercurial core CEE rates are strongly
frequency-sensitive, some aren't.  Dynamic Frequency and Voltage Scaling
(DFVS) causes frequency and voltage to be closely related in complex
ways, one of several reasons why lower frequency sometimes (surprisingly)
increases the failure rate."

Each sensitivity maps an :class:`~repro.silicon.environment.OperatingPoint`
to a multiplicative factor on a defect's base corruption rate.  The
"lower frequency is worse" anomaly emerges naturally from
:class:`VoltageMarginSensitivity` swept along a DVFS ladder: lower DVFS
states also lower the voltage, and a voltage-margin defect fires more at
low voltage, so the *frequency* sweep appears inverted.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.silicon.environment import NOMINAL, OperatingPoint


class EnvironmentSensitivity(Protocol):
    """Callable mapping an operating point to a rate multiplier."""

    def multiplier(self, env: OperatingPoint) -> float:
        """Return the (non-negative) rate multiplier at ``env``."""
        ...


class FlatSensitivity:
    """Rate is independent of operating conditions."""

    def multiplier(self, env: OperatingPoint) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "FlatSensitivity()"


class FrequencySensitivity:
    """Rate scales exponentially with frequency above nominal.

    ``factor_per_ghz > 1`` is the common case (timing-marginal paths
    fail more when clocked faster); ``factor_per_ghz < 1`` produces a
    directly frequency-inverted defect.
    """

    def __init__(self, factor_per_ghz: float = 4.0):
        if factor_per_ghz <= 0:
            raise ValueError("factor_per_ghz must be positive")
        self.factor_per_ghz = factor_per_ghz

    def multiplier(self, env: OperatingPoint) -> float:
        return self.factor_per_ghz ** (
            env.frequency_ghz - NOMINAL.frequency_ghz
        )

    def __repr__(self) -> str:
        return f"FrequencySensitivity(factor_per_ghz={self.factor_per_ghz})"


class VoltageMarginSensitivity:
    """Rate grows as voltage drops below nominal (margin erosion).

    Every 50 mV *below* nominal multiplies the rate by
    ``factor_per_50mv``; voltage above nominal divides it.
    """

    def __init__(self, factor_per_50mv: float = 3.0):
        if factor_per_50mv <= 0:
            raise ValueError("factor_per_50mv must be positive")
        self.factor_per_50mv = factor_per_50mv

    def multiplier(self, env: OperatingPoint) -> float:
        deficit_50mv = (NOMINAL.voltage_v - env.voltage_v) / 0.050
        return self.factor_per_50mv ** deficit_50mv

    def __repr__(self) -> str:
        return (
            f"VoltageMarginSensitivity(factor_per_50mv={self.factor_per_50mv})"
        )


class ThermalSensitivity:
    """Rate scales with temperature above nominal (per 10 °C)."""

    def __init__(self, factor_per_10c: float = 1.8):
        if factor_per_10c <= 0:
            raise ValueError("factor_per_10c must be positive")
        self.factor_per_10c = factor_per_10c

    def multiplier(self, env: OperatingPoint) -> float:
        return self.factor_per_10c ** (
            (env.temperature_c - NOMINAL.temperature_c) / 10.0
        )

    def __repr__(self) -> str:
        return f"ThermalSensitivity(factor_per_10c={self.factor_per_10c})"


class ComposedSensitivity:
    """Product of several sensitivities (rates compose multiplicatively)."""

    def __init__(self, parts: Sequence[EnvironmentSensitivity]):
        if not parts:
            raise ValueError("ComposedSensitivity needs at least one part")
        self.parts = tuple(parts)

    def multiplier(self, env: OperatingPoint) -> float:
        result = 1.0
        for part in self.parts:
            result *= part.multiplier(env)
        return result

    def __repr__(self) -> str:
        return f"ComposedSensitivity({list(self.parts)!r})"
