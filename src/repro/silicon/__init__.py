"""Simulated silicon: cores, functional units, defects, environment.

This package is the substitute for the real defective hardware the
paper studied (see DESIGN.md §1).  The public surface:

- :class:`Core` — execution with defect injection.
- Defect models in :mod:`repro.silicon.defects` and the population
  sampler in :mod:`repro.silicon.catalog`.
- Operating conditions in :mod:`repro.silicon.environment` and rate
  sensitivities in :mod:`repro.silicon.sensitivity`.
- Aging/onset models in :mod:`repro.silicon.aging`.
- A small ISA (:mod:`repro.silicon.isa`), assembler and VM for writing
  screening tests as programs.
"""

from repro.silicon.accelerator import (
    MatrixAccelerator,
    PeDefect,
    abft_tile_check,
    column_error_signature,
    screen_accelerator,
)
from repro.silicon.aging import AgingProfile, IMMEDIATE, WeibullOnset
from repro.silicon.assembler import AssemblyError, assemble
from repro.silicon.catalog import (
    NAMED_CASES,
    named_case,
    sample_core_defects,
    sample_defect,
)
from repro.silicon.core import Core
from repro.silicon.defects import (
    AtomicsDefect,
    DefectModel,
    MachineCheckDefect,
    OperandPatternDefect,
    SboxPermutationDefect,
    SharedLogicDefect,
    StuckBitDefect,
)
from repro.silicon.environment import DvfsTable, NOMINAL, OperatingPoint, stress_points
from repro.silicon.errors import CoreOfflineError, MachineCheckError, SiliconError
from repro.silicon.golden import AES_INV_SBOX, AES_SBOX, MASK64, golden_execute
from repro.silicon.injector import (
    FaultInjector,
    InjectionCampaign,
    InjectionOutcome,
    InjectionPlan,
    SusceptibilityReport,
)
from repro.silicon.sensitivity import (
    ComposedSensitivity,
    FlatSensitivity,
    FrequencySensitivity,
    ThermalSensitivity,
    VoltageMarginSensitivity,
)
from repro.silicon.units import FunctionalUnit, LogicBlock, Op
from repro.silicon.vm import Vm, VmResult

__all__ = [
    "MatrixAccelerator",
    "PeDefect",
    "abft_tile_check",
    "column_error_signature",
    "screen_accelerator",
    "AgingProfile",
    "IMMEDIATE",
    "WeibullOnset",
    "AssemblyError",
    "assemble",
    "NAMED_CASES",
    "named_case",
    "sample_core_defects",
    "sample_defect",
    "Core",
    "AtomicsDefect",
    "DefectModel",
    "MachineCheckDefect",
    "OperandPatternDefect",
    "SboxPermutationDefect",
    "SharedLogicDefect",
    "StuckBitDefect",
    "DvfsTable",
    "NOMINAL",
    "OperatingPoint",
    "stress_points",
    "CoreOfflineError",
    "MachineCheckError",
    "SiliconError",
    "AES_INV_SBOX",
    "AES_SBOX",
    "MASK64",
    "golden_execute",
    "FaultInjector",
    "InjectionCampaign",
    "InjectionOutcome",
    "InjectionPlan",
    "SusceptibilityReport",
    "ComposedSensitivity",
    "FlatSensitivity",
    "FrequencySensitivity",
    "ThermalSensitivity",
    "VoltageMarginSensitivity",
    "FunctionalUnit",
    "LogicBlock",
    "Op",
    "Vm",
    "VmResult",
]
