"""Catalog of defect archetypes and the population sampler.

The paper reports that "corruption rates vary by many orders of
magnitude (given a particular workload or test) across defective cores"
(§2).  The sampler therefore draws each defect's base rate log-uniformly
across several decades, picks an archetype matching the §2 symptom list,
attaches a random environment sensitivity (§5: "some mercurial core CEE
rates are strongly frequency-sensitive, some aren't") and an aging
profile drawn from a Weibull onset model.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.silicon.aging import AgingProfile, WeibullOnset
from repro.silicon.defects import (
    AtomicsDefect,
    DefectModel,
    MachineCheckDefect,
    OperandPatternDefect,
    SboxPermutationDefect,
    SharedLogicDefect,
    StuckBitDefect,
)
from repro.silicon.sensitivity import (
    ComposedSensitivity,
    EnvironmentSensitivity,
    FlatSensitivity,
    FrequencySensitivity,
    ThermalSensitivity,
    VoltageMarginSensitivity,
)
from repro.silicon.units import FunctionalUnit, LogicBlock, Op


@dataclasses.dataclass(frozen=True)
class Archetype:
    """A named defect family with a sampling weight."""

    name: str
    weight: float
    build: Callable[[str, float, EnvironmentSensitivity, AgingProfile,
                     np.random.Generator], DefectModel]


def _stuck_bit(defect_id, rate, sens, aging, rng) -> DefectModel:
    unit = rng.choice(
        [FunctionalUnit.ALU, FunctionalUnit.LOAD_STORE, FunctionalUnit.VECTOR]
    )
    return StuckBitDefect(
        defect_id,
        bit=int(rng.integers(64)),
        mode=str(rng.choice(StuckBitDefect.MODES)),
        base_rate=rate,
        unit=unit,
        sensitivity=sens,
        aging=aging,
    )


def _sbox(defect_id, rate, sens, aging, rng) -> DefectModel:
    a = int(rng.integers(256))
    b = int(rng.integers(256))
    while b == a:
        b = int(rng.integers(256))
    return SboxPermutationDefect(
        defect_id, swaps=((a, b),), sensitivity=sens, aging=aging
    )


def _pattern(defect_id, rate, sens, aging, rng) -> DefectModel:
    n_bits = int(rng.integers(2, 7))
    positions = rng.choice(64, size=n_bits, replace=False)
    mask = 0
    for p in positions:
        mask |= 1 << int(p)
    value = int(rng.integers(2**63)) & mask
    unit = rng.choice([FunctionalUnit.MUL_DIV, FunctionalUnit.ALU])
    return OperandPatternDefect(
        defect_id,
        mask=mask,
        value=value,
        error=1 << int(rng.integers(64)),
        base_rate=min(rate * 64, 1.0),  # gate already thins the rate
        unit=unit,
        sensitivity=sens,
        aging=aging,
    )


def _shared_logic(defect_id, rate, sens, aging, rng) -> DefectModel:
    block = rng.choice(
        [LogicBlock.SHUFFLE_NETWORK, LogicBlock.ADDER_TREE,
         LogicBlock.BOOTH_MULTIPLIER]
    )
    return SharedLogicDefect(
        defect_id,
        block=block,
        bit=int(rng.integers(64)),
        base_rate=rate,
        sensitivity=sens,
        aging=aging,
    )


def _atomics(defect_id, rate, sens, aging, rng) -> DefectModel:
    return AtomicsDefect(defect_id, base_rate=rate, sensitivity=sens, aging=aging)


def _machine_check(defect_id, rate, sens, aging, rng) -> DefectModel:
    unit = rng.choice([FunctionalUnit.LOAD_STORE, FunctionalUnit.ATOMICS])
    return MachineCheckDefect(
        defect_id, base_rate=rate, unit=unit, sensitivity=sens, aging=aging
    )


#: archetype weights loosely track the §2 symptom list: data-path
#: corruptions dominate; deterministic table defects and pure
#: machine-check defects are rarer.
ARCHETYPES: tuple[Archetype, ...] = (
    Archetype("stuck_bit", 0.30, _stuck_bit),
    Archetype("operand_pattern", 0.22, _pattern),
    Archetype("shared_logic", 0.18, _shared_logic),
    Archetype("atomics", 0.12, _atomics),
    Archetype("machine_check", 0.10, _machine_check),
    Archetype("sbox_permutation", 0.08, _sbox),
)


def _sample_sensitivity(rng: np.random.Generator) -> EnvironmentSensitivity:
    """Draw an environment sensitivity (§5 heterogeneity).

    Roughly a third of defects are environment-flat; the rest mix
    frequency, voltage-margin and thermal sensitivities.
    """
    roll = rng.random()
    if roll < 0.35:
        return FlatSensitivity()
    parts: list[EnvironmentSensitivity] = []
    if rng.random() < 0.6:
        parts.append(FrequencySensitivity(factor_per_ghz=float(rng.uniform(1.5, 8.0))))
    if rng.random() < 0.5:
        parts.append(
            VoltageMarginSensitivity(factor_per_50mv=float(rng.uniform(1.5, 5.0)))
        )
    if rng.random() < 0.4:
        parts.append(ThermalSensitivity(factor_per_10c=float(rng.uniform(1.2, 2.5))))
    if not parts:
        parts.append(FrequencySensitivity(factor_per_ghz=float(rng.uniform(1.5, 8.0))))
    if len(parts) == 1:
        return parts[0]
    return ComposedSensitivity(parts)


def sample_base_rate(
    rng: np.random.Generator,
    decades: tuple[float, float] = (-7.5, -2.5),
) -> float:
    """Log-uniform base corruption rate spanning several decades (§2)."""
    low, high = decades
    return float(10.0 ** rng.uniform(low, high))


def sample_defect(
    rng: np.random.Generator,
    defect_id: str,
    onset: WeibullOnset | None = None,
    rate_decades: tuple[float, float] = (-7.5, -2.5),
) -> DefectModel:
    """Draw one defect from the archetype catalog."""
    onset = onset or WeibullOnset()
    weights = np.array([a.weight for a in ARCHETYPES])
    weights = weights / weights.sum()
    archetype = ARCHETYPES[int(rng.choice(len(ARCHETYPES), p=weights))]
    rate = sample_base_rate(rng, rate_decades)
    sensitivity = _sample_sensitivity(rng)
    aging = onset.sample_profile(rng)
    return archetype.build(
        f"{defect_id}:{archetype.name}", rate, sensitivity, aging, rng
    )


#: most defects one mercurial core carries
MAX_DEFECTS_PER_CORE = 2


def sample_core_defects(
    rng: np.random.Generator,
    defect_id_prefix: str,
    onset: WeibullOnset | None = None,
    rate_decades: tuple[float, float] = (-7.5, -2.5),
) -> list[DefectModel]:
    """Draw the defect set for one mercurial core (usually a single defect).

    The paper notes a single core usually fails "often consistently";
    occasionally one core exhibits multiple correlated failure modes
    (the copy+vector case), which the shared-logic archetype covers with
    a single defect object, so multi-defect cores are uncommon here too.
    """
    n = (
        1 if rng.random() < 0.85
        else int(rng.integers(2, MAX_DEFECTS_PER_CORE + 1))
    )
    return [
        sample_defect(rng, f"{defect_id_prefix}/d{i}", onset, rate_decades)
        for i in range(n)
    ]


def named_case(name: str) -> Sequence[DefectModel]:
    """Hand-built defect sets reproducing the §2 bullet-list examples.

    These are the deterministic case studies used by examples and
    experiment E3/E4; the names match the paper's anecdotes.
    """
    cases: dict[str, Callable[[], Sequence[DefectModel]]] = {
        # "A deterministic AES mis-computation, which was self-inverting"
        "self_inverting_aes": lambda: [
            SboxPermutationDefect("case:aes", swaps=((0x3A, 0xC5), (0x11, 0x7E)))
        ],
        # "Repeated bit-flips in strings, at a particular bit position"
        "string_bit_flipper": lambda: [
            StuckBitDefect(
                "case:bitflip", bit=5, mode="flip", base_rate=2e-3,
                unit=FunctionalUnit.LOAD_STORE,
            )
        ],
        # "Violations of lock semantics"
        "lock_violator": lambda: [
            AtomicsDefect("case:locks", base_rate=2e-3)
        ],
        # "Database index corruption leading to some queries ... being
        #  non-deterministically corrupted" — a comparator that errs
        #  when both operands carry a particular low-bit pattern.
        "comparator_flip": lambda: [
            OperandPatternDefect(
                "case:cmp", mask=0x7, value=0x7, error=1,
                base_rate=0.6, ops=(Op.BLT, Op.BEQ, Op.CMP),
            )
        ],
        # "Data corruptions exhibited by various load, store, vector, and
        #  coherence operations" — the shared copy/vector logic case (§5)
        "copy_vector_shared": lambda: [
            SharedLogicDefect(
                "case:shuffle", block=LogicBlock.SHUFFLE_NETWORK,
                bit=13, base_rate=1e-3,
            )
        ],
        # Multiplier pattern defect for database/GC corruption studies
        "multiplier_pattern": lambda: [
            OperandPatternDefect(
                "case:mul", mask=0xFF00, value=0x4200, error=1 << 17,
                base_rate=1.0, unit=FunctionalUnit.MUL_DIV,
            )
        ],
        # Fail-noisy core
        "machine_checker": lambda: [
            MachineCheckDefect("case:mce", base_rate=1e-4)
        ],
    }
    try:
        return cases[name]()
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; available: {sorted(cases)}"
        ) from None


NAMED_CASES: tuple[str, ...] = (
    "self_inverting_aes",
    "comparator_flip",
    "string_bit_flipper",
    "lock_violator",
    "copy_vector_shared",
    "multiplier_pattern",
    "machine_checker",
)
