"""Operating conditions: frequency, voltage, temperature ("f, V, T").

The paper notes (§2 footnote) that "Modern CPUs tightly couple f and V;
these are not normally independently adjustable by users, while T is
somewhat controllable", and (§5) that Dynamic Frequency and Voltage
Scaling (DVFS) couples the two "in complex ways, one of several reasons
why lower frequency sometimes (surprisingly) increases the failure
rate".

This module models an operating point plus a DVFS table: selecting a
frequency implies a voltage.  Screening code can sweep the normal
envelope or step outside it (offline screening "could involve exposing
CPUs to operating conditions (f, V, T) outside normal ranges", §6).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """One (frequency, voltage, temperature) condition.

    Attributes:
        frequency_ghz: core clock in GHz.
        voltage_v: supply voltage in volts.
        temperature_c: junction temperature in Celsius.
    """

    frequency_ghz: float
    voltage_v: float
    temperature_c: float

    def with_temperature(self, temperature_c: float) -> "OperatingPoint":
        """A copy of this point at a different temperature."""
        return dataclasses.replace(self, temperature_c=temperature_c)

    def scaled(self, frequency_ghz: float, voltage_v: float) -> "OperatingPoint":
        """A copy at a different DVFS point (same temperature)."""
        return dataclasses.replace(
            self, frequency_ghz=frequency_ghz, voltage_v=voltage_v
        )


#: the fleet's default operating point
NOMINAL = OperatingPoint(frequency_ghz=3.0, voltage_v=1.00, temperature_c=60.0)


class DvfsTable:
    """Discrete DVFS states coupling frequency to voltage.

    Users pick a *state*, not an arbitrary (f, V); this mirrors the
    paper's observation that f and V are not independently adjustable.
    """

    def __init__(self, states: Sequence[tuple[float, float]] | None = None):
        """Create a table from ``(frequency_ghz, voltage_v)`` pairs.

        The default ladder spans a typical server part: low-frequency,
        low-voltage states up to a boosted top state.
        """
        if states is None:
            states = (
                (1.2, 0.70),
                (1.8, 0.80),
                (2.4, 0.90),
                (3.0, 1.00),
                (3.6, 1.12),
            )
        if not states:
            raise ValueError("DVFS table needs at least one state")
        self._states = tuple(sorted(states))

    @property
    def states(self) -> tuple[tuple[float, float], ...]:
        """The (frequency, voltage) ladder, ascending."""
        return self._states

    def state(self, index: int) -> tuple[float, float]:
        """One DVFS state as (frequency_ghz, voltage_v)."""
        return self._states[index]

    def operating_point(
        self, index: int, temperature_c: float = NOMINAL.temperature_c
    ) -> OperatingPoint:
        """Build an :class:`OperatingPoint` for DVFS state ``index``."""
        frequency_ghz, voltage_v = self._states[index]
        return OperatingPoint(frequency_ghz, voltage_v, temperature_c)

    def sweep(
        self, temperatures_c: Sequence[float] = (40.0, 60.0, 85.0)
    ) -> Iterator[OperatingPoint]:
        """Yield every (state × temperature) combination of the envelope."""
        for index in range(len(self._states)):
            for temperature_c in temperatures_c:
                yield self.operating_point(index, temperature_c)


def stress_points(table: DvfsTable | None = None) -> tuple[OperatingPoint, ...]:
    """Out-of-envelope points used by offline screening (§6).

    Returns the envelope corners pushed beyond their normal range:
    hotter, colder, and with voltage margined down at top frequency —
    conditions that make marginal defects confess sooner.
    """
    table = table or DvfsTable()
    top_f, top_v = table.states[-1]
    bottom_f, bottom_v = table.states[0]
    return (
        OperatingPoint(top_f, top_v * 0.95, 95.0),   # hot, undervolted boost
        OperatingPoint(top_f, top_v, 15.0),          # cold boost
        OperatingPoint(bottom_f, bottom_v * 0.93, 90.0),  # hot low-power
    )
