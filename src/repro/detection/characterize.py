"""Automatic defect characterization: from confession to targeted test.

§2: "we lack a systematic method of developing these tests"; §6: we
must extract confessions "often after first developing a new
automatable test"; §9 asks for "methods to detect novel defect modes".

This module is that systematic method, for the failure modes our
silicon can express.  Given a core that has confessed (some test
failed, but we don't know *why*), the characterizer:

1. finds which operations miscompute (random probing per op);
2. for operand-pattern-gated defects, recovers the gating mask/value by
   bit-flip differencing over failing operands (a delta-debugging style
   reduction);
3. measures the defect's observable rate on its trigger set;
4. emits a :class:`~repro.detection.corpus.ScreeningTest` that targets
   exactly the recovered trigger — the "new automatable test" that then
   joins the corpus.

Everything here uses only black-box access (`execute` vs host golden):
the characterizer never reads the core's defect list.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.detection.corpus import ScreeningTest, make_targeted_test
from repro.silicon.core import Core
from repro.silicon.errors import MachineCheckError
from repro.silicon.golden import golden_execute
from repro.silicon.units import ALL_OPS, FunctionalUnit, unit_of

#: ops probed with two scalar operands (the characterizable family)
_SCALAR_BINOPS = (
    "add", "sub", "and", "or", "xor", "shl", "shr", "rotl",
    "mul", "mulh", "cmp", "beq", "blt", "gfmul",
)


def _random_operands(op: str, rng: np.random.Generator) -> tuple:
    if op in ("sbox", "inv_sbox"):
        return (int(rng.integers(256)),)
    if op == "gfmul":
        return (int(rng.integers(256)), int(rng.integers(256)))
    if op in ("shl", "shr", "rotl"):
        return (int(rng.integers(2**63)), int(rng.integers(64)))
    return (int(rng.integers(2**63)), int(rng.integers(2**63)))


@dataclasses.dataclass
class OpFinding:
    """Characterization result for one operation."""

    op: str
    probes: int
    failures: int
    failing_operands: list[tuple]
    machine_checks: int = 0

    @property
    def observed_rate(self) -> float:
        return self.failures / self.probes if self.probes else 0.0


@dataclasses.dataclass
class DefectProfile:
    """Everything the characterizer learned about one suspect core."""

    core_id: str
    findings: list[OpFinding]
    implicated_units: frozenset
    trigger_mask: int | None = None
    trigger_value: int | None = None


def probe_operations(
    core: Core, rng: np.random.Generator, probes_per_op: int = 400
) -> list[OpFinding]:
    """Black-box probe: which operations ever disagree with golden?"""
    findings = []
    for op in ALL_OPS:
        if op not in _SCALAR_BINOPS and op not in ("sbox", "inv_sbox"):
            continue
        failures = 0
        machine_checks = 0
        failing: list[tuple] = []
        for _ in range(probes_per_op):
            operands = _random_operands(op, rng)
            try:
                observed = core.execute(op, *operands)
            except MachineCheckError:
                machine_checks += 1
                continue
            if observed != golden_execute(op, *operands):
                failures += 1
                if len(failing) < 64:
                    failing.append(operands)
        findings.append(
            OpFinding(
                op=op, probes=probes_per_op, failures=failures,
                failing_operands=failing, machine_checks=machine_checks,
            )
        )
    return findings


#: re-executions per candidate bit before a gate bit is believed
GATE_CONFIRMATIONS = 5
#: vectors in a synthesized regression test
REGRESSION_VECTORS = 32


def recover_trigger_gate(
    core: Core,
    op: str,
    failing_operands: list[tuple],
    rng: np.random.Generator,
) -> tuple[int, int] | None:
    """Recover an operand-pattern gate ``(mask, value)`` if one exists.

    Strategy (delta debugging over bits): starting from a known failing
    operand pair, flip each bit of each operand; if flipping bit ``b``
    makes the miscomputation stop reliably, ``b`` is part of the gate
    mask.  Deterministic pattern defects answer consistently, so a few
    confirmations per bit suffice.

    Returns None when failures look ungated (random/stuck-bit style).
    """
    if not failing_operands:
        return None

    def fails(operands: tuple) -> bool:
        for _ in range(GATE_CONFIRMATIONS):
            try:
                if core.execute(op, *operands) != golden_execute(op, *operands):
                    return True
            except MachineCheckError:
                return True
        return False

    base = failing_operands[0]
    if not fails(base):
        return None  # not reproducible enough to be a deterministic gate
    mask = 0
    value = 0
    for bit in range(64):
        flipped_all = tuple(x ^ (1 << bit) for x in base)
        if not fails(flipped_all):
            mask |= 1 << bit
            value |= base[0] & (1 << bit)
    if mask == 0:
        return None
    # Validate: random operands matching the gate must fail; random
    # operands violating it must pass.
    for _ in range(10):
        probe = tuple(
            (int(rng.integers(2**63)) & ~mask) | value for _ in base
        )
        if not fails(probe):
            return None
    return mask, value


def characterize(
    core: Core,
    seed: int = 0,
    probes_per_op: int = 400,
) -> DefectProfile:
    """Full black-box characterization of a suspect core."""
    rng = np.random.default_rng(seed)
    findings = probe_operations(core, rng, probes_per_op)
    implicated = frozenset(
        unit_of(f.op) for f in findings if f.failures or f.machine_checks
    )
    profile = DefectProfile(
        core_id=core.core_id, findings=findings, implicated_units=implicated
    )
    # Try gate recovery on the most deterministic-looking finding.
    candidates = [
        f for f in findings
        if f.failing_operands and 0 < f.observed_rate < 0.9
    ]
    candidates.sort(key=lambda f: f.observed_rate)
    for finding in candidates:
        gate = recover_trigger_gate(
            core, finding.op, finding.failing_operands, rng
        )
        if gate is not None:
            profile.trigger_mask, profile.trigger_value = gate
            break
    return profile


def synthesize_regression_test(
    profile: DefectProfile, seed: int = 1
) -> ScreeningTest | None:
    """Turn a profile into the 'new automatable test' for the corpus.

    Prefers the recovered operand gate (exact trigger vectors);
    otherwise uses the recorded failing operands as regression vectors.
    Returns None if the profile has nothing actionable.
    """
    failing = [f for f in profile.findings if f.failing_operands]
    if not failing:
        return None
    finding = max(failing, key=lambda f: f.observed_rate)
    rng = np.random.default_rng(seed)
    if profile.trigger_mask is not None:
        mask, value = profile.trigger_mask, profile.trigger_value
        vectors = [
            tuple(
                (int(rng.integers(2**63)) & ~mask) | value
                for _ in finding.failing_operands[0]
            )
            for _ in range(REGRESSION_VECTORS)
        ]
    else:
        vectors = list(finding.failing_operands[:REGRESSION_VECTORS])
    return make_targeted_test(
        f"targeted:{profile.core_id}:{finding.op}",
        finding.op,
        vectors,
        {unit_of(finding.op)},
    )
