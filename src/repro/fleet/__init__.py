"""Fleet modeling: machines, populations, scheduling, simulation.

This package is the substitute for the production fleet the paper
observed (see DESIGN.md): seeded population synthesis over a CPU-SKU
portfolio, a core-slot scheduler that feels quarantine's capacity cost,
and the discrete-event simulator whose output reproduces Fig. 1.
"""

from repro.fleet.columns import (
    DEFECT_MODE_CODES,
    FleetColumns,
    SNAPSHOT_FIELDS,
    defect_mode_code,
)
from repro.fleet.machine import Machine
from repro.fleet.population import FleetBuilder, FleetGroundTruth
from repro.fleet.product import CpuProduct, DEFAULT_PRODUCTS
from repro.fleet.scheduler import (
    FleetScheduler,
    Placement,
    ScheduleStats,
    Task,
)
from repro.fleet.simulator import (
    FleetSimulator,
    SimulationResult,
    SimulatorConfig,
)

__all__ = [
    "DEFECT_MODE_CODES",
    "FleetColumns",
    "SNAPSHOT_FIELDS",
    "defect_mode_code",
    "Machine",
    "FleetBuilder",
    "FleetGroundTruth",
    "CpuProduct",
    "DEFAULT_PRODUCTS",
    "FleetScheduler",
    "Placement",
    "ScheduleStats",
    "Task",
    "FleetSimulator",
    "SimulationResult",
    "SimulatorConfig",
]
