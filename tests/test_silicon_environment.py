"""Operating points, DVFS coupling, stress points."""

import pytest

from repro.silicon.environment import DvfsTable, NOMINAL, OperatingPoint, stress_points


class TestOperatingPoint:
    def test_nominal_values(self):
        assert NOMINAL.frequency_ghz == 3.0
        assert NOMINAL.voltage_v == 1.0

    def test_with_temperature_is_functional(self):
        hot = NOMINAL.with_temperature(95.0)
        assert hot.temperature_c == 95.0
        assert NOMINAL.temperature_c == 60.0  # original untouched

    def test_scaled_changes_f_and_v(self):
        point = NOMINAL.scaled(frequency_ghz=1.2, voltage_v=0.7)
        assert point.frequency_ghz == 1.2
        assert point.voltage_v == 0.7

    def test_frozen(self):
        with pytest.raises(Exception):
            NOMINAL.frequency_ghz = 5.0  # type: ignore[misc]


class TestDvfsTable:
    def test_default_ladder_couples_f_and_v(self):
        table = DvfsTable()
        frequencies = [f for f, _ in table.states]
        voltages = [v for _, v in table.states]
        assert frequencies == sorted(frequencies)
        assert voltages == sorted(voltages)  # lower f implies lower V

    def test_operating_point_carries_temperature(self):
        table = DvfsTable()
        point = table.operating_point(0, temperature_c=80.0)
        assert point.temperature_c == 80.0
        assert point.frequency_ghz == table.states[0][0]

    def test_sweep_covers_all_states_and_temps(self):
        table = DvfsTable()
        points = list(table.sweep(temperatures_c=(40.0, 80.0)))
        assert len(points) == len(table.states) * 2

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DvfsTable(states=[])


class TestStressPoints:
    def test_stress_points_leave_the_envelope(self):
        table = DvfsTable()
        top_f, top_v = table.states[-1]
        points = stress_points(table)
        assert any(p.voltage_v < top_v and p.frequency_ghz == top_f for p in points)
        assert any(p.temperature_c >= 90.0 for p in points)
        assert any(p.temperature_c <= 20.0 for p in points)
