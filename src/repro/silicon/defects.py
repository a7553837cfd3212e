"""Defect models: the ways a mercurial core computes wrong answers.

Each model reproduces a failure mode the paper reports (§2, §5):

- :class:`StuckBitDefect` — "repeated bit-flips in strings, at a
  particular bit position (which stuck out as unlikely to be coding
  bugs)".
- :class:`SboxPermutationDefect` — "a deterministic AES mis-computation,
  which was 'self-inverting': encrypting and decrypting on the same core
  yielded the identity function, but decryption elsewhere yielded
  gibberish".
- :class:`OperandPatternDefect` — "usually the implementation-level and
  environmental details have to line up.  Data patterns can affect
  corruption rates".
- :class:`SharedLogicDefect` — "the same mercurial core manifests CEEs
  both with certain data-copy operations and with certain vector
  operations ... both kinds of operations share the same hardware
  logic".
- :class:`AtomicsDefect` — "violations of lock semantics leading to
  application data corruption and crashes".
- :class:`MachineCheckDefect` — fail-noisy behaviour: "machine checks,
  which are more disruptive" but at least produce a logged signal.

Every defect combines a *targeting rule* (which operations flow through
the broken structure), a *base rate*, an environment sensitivity and an
aging profile.  ``apply`` perturbs a single executed operation;
``effective_rate`` exposes the same behaviour analytically so the fleet
simulator can run months of simulated time without executing ops.
"""

from __future__ import annotations

import abc
import functools
from typing import Collection, FrozenSet, Iterable, Sequence

import numpy as np

from repro.silicon.aging import IMMEDIATE, AgingProfile
from repro.silicon.environment import OperatingPoint
from repro.silicon.errors import MachineCheckError
from repro.silicon.golden import AES_INV_SBOX, AES_SBOX
from repro.silicon.sensitivity import EnvironmentSensitivity, FlatSensitivity
from repro.silicon.units import (
    FunctionalUnit,
    LogicBlock,
    Op,
    OP_UNIT,
    ops_touching,
    UNIT_OPS,
)


def resolve_target_ops(
    ops: Iterable[str] | None = None,
    unit: FunctionalUnit | None = None,
    block: LogicBlock | None = None,
) -> FrozenSet[str]:
    """Resolve a targeting spec into the concrete set of operations.

    Exactly one of ``ops``, ``unit`` or ``block`` must be given:
    explicit mnemonics, every op of a functional unit, or every op whose
    datapath crosses a shared logic block.
    """
    given = [x is not None for x in (ops, unit, block)]
    if sum(given) != 1:
        raise ValueError("specify exactly one of ops=, unit=, block=")
    if ops is not None:
        ops = frozenset(ops)
        unknown = ops - set(OP_UNIT)
        if unknown:
            raise ValueError(f"unknown operations: {sorted(unknown)}")
        return ops
    if unit is not None:
        return frozenset(UNIT_OPS[unit])
    assert block is not None
    return frozenset(ops_touching(block))


def flip_bit(value: int, bit: int) -> int:
    """Flip ``bit`` of a non-negative integer value."""
    return value ^ (1 << bit)


class DefectModel(abc.ABC):
    """Base class for all defect models.

    Subclasses implement :meth:`_corrupt`, which receives the golden
    result and returns the corrupted one.  The base class owns
    targeting, probability, environment sensitivity and aging.
    """

    def __init__(
        self,
        defect_id: str,
        target_ops: FrozenSet[str],
        base_rate: float,
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        if not 0.0 <= base_rate <= 1.0:
            raise ValueError("base_rate must be a probability")
        if not target_ops:
            raise ValueError("defect must target at least one operation")
        self.defect_id = defect_id
        self.target_ops = target_ops
        self.base_rate = base_rate
        self.sensitivity = sensitivity or FlatSensitivity()
        self.aging = aging

    # -- analytic interface (used by the fleet-scale simulator) --------

    def targets(self, op: str) -> bool:
        """Whether ``op`` flows through this defect's broken structure."""
        return op in self.target_ops

    def trigger_fraction(self, op: str) -> float:
        """Fraction of operand space that can trigger the defect for ``op``.

        1.0 means any operands may be corrupted; pattern-gated defects
        override this with the measure of their trigger set.
        """
        return 1.0

    def effective_rate(
        self, op: str, env: OperatingPoint, age_days: float
    ) -> float:
        """Per-execution corruption probability for ``op`` at ``env``."""
        if not self.targets(op):
            return 0.0
        rate = (
            self.base_rate
            * self.trigger_fraction(op)
            * self.sensitivity.multiplier(env)
            * self.aging.rate_multiplier(age_days)
        )
        return min(rate, 1.0)

    def rate_plan(
        self, op_mix: dict[str, float], env: OperatingPoint
    ) -> tuple[tuple[float, float], ...]:
        """The age-independent part of :meth:`mean_rate`.

        One ``(mix fraction, per-execution rate before aging)`` pair per
        op of the mix this defect targets, in mix order.  Nothing in it
        moves while the defect, the mix and ``env`` stay put, so a
        caller that re-evaluates the same core as it ages builds the
        plan once and pays only :meth:`rate_at_age` afterwards.
        """
        sensitivity = self.sensitivity.multiplier(env)
        return tuple(
            (fraction,
             self.base_rate * self.trigger_fraction(op) * sensitivity)
            for op, fraction in op_mix.items()
            if self.targets(op)
        )

    def rate_at_age(
        self, plan: tuple[tuple[float, float], ...], age_days: float
    ) -> float:
        """The per-age step of :meth:`mean_rate` over a :meth:`rate_plan`.

        Term by term this is ``fraction * effective_rate(op, ...)``: the
        same products in the same order, the same clamp, and the builtin
        ``sum`` (compensated from Python 3.12 on, which a ``+=`` loop is
        not).  The untargeted ops the plan left out contribute exact
        ``0.0`` terms to the full sum, so dropping them changes no bit.
        """
        aging = self.aging.rate_multiplier(age_days)
        return sum(
            [fraction * min(rate * aging, 1.0) for fraction, rate in plan],
            0.0,
        )

    def mean_rate(
        self,
        op_mix: dict[str, float],
        env: OperatingPoint,
        age_days: float,
    ) -> float:
        """Expected corruptions per operation under an operation mix."""
        return self.rate_at_age(self.rate_plan(op_mix, env), age_days)

    # -- sampled interface (used when actually executing work) ---------

    def quiet(self, op: str, values: Collection[int]) -> bool:
        """Whether :meth:`apply` leaves every one-operand ``op`` alone.

        True means that for each operand in ``values`` ``apply`` returns
        the golden result without drawing from the rng, whatever the
        environment and age, so a caller may skip it.  The default
        answers for the op alone; operand-gated defects refine it.
        """
        return op not in self.target_ops

    def apply(
        self,
        op: str,
        operands: tuple,
        result,
        env: OperatingPoint,
        age_days: float,
        rng: np.random.Generator,
    ):
        """Possibly perturb ``result``; returns the (maybe new) result.

        Raises:
            MachineCheckError: for fail-noisy defect models.
        """
        if not self.targets(op):
            return result
        if not self._triggered(op, operands):
            return result
        rate = (
            self.base_rate
            * self.sensitivity.multiplier(env)
            * self.aging.rate_multiplier(age_days)
        )
        # Wide operations expose every lane to the broken structure: a
        # 64-word block copy gets 64 chances to corrupt, not one.
        if isinstance(result, tuple) and len(result) > 1 and rate < 1.0:
            rate = 1.0 - (1.0 - rate) ** len(result)
        if rate < 1.0 and rng.random() >= rate:
            return result
        return self._corrupt(op, operands, result, rng)

    def _triggered(self, op: str, operands: tuple) -> bool:
        """Operand-pattern gate; default is always-triggered."""
        return True

    @abc.abstractmethod
    def _corrupt(self, op: str, operands: tuple, result, rng: np.random.Generator):
        """Return the corrupted result (golden result is ``result``)."""

    def describe(self) -> str:
        """One-line human description for logs and reports."""
        return (
            f"{type(self).__name__}({self.defect_id}: "
            f"{len(self.target_ops)} ops, base_rate={self.base_rate:g})"
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


def _corrupt_scalar_or_vector(result, corrupt_lane, rng: np.random.Generator):
    """Apply a scalar corruption to a scalar or to one lane of a tuple."""
    if isinstance(result, tuple):
        if not result:
            return result
        lane = int(rng.integers(len(result)))
        lanes = list(result)
        lanes[lane] = corrupt_lane(lanes[lane])
        return tuple(lanes)
    if isinstance(result, int):
        return corrupt_lane(result)
    return result


class StuckBitDefect(DefectModel):
    """Flips (or forces) one fixed bit position of results.

    Models the "repeated bit-flips in strings, at a particular bit
    position" observation: the corruption is always at the same bit, so
    application-level symptoms show a suspicious fixed stride.
    """

    MODES = ("flip", "set", "clear")

    def __init__(
        self,
        defect_id: str,
        bit: int,
        mode: str = "flip",
        base_rate: float = 1e-6,
        ops: Iterable[str] | None = None,
        unit: FunctionalUnit | None = None,
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        if not 0 <= bit < 64:
            raise ValueError("bit must be in [0, 64)")
        if ops is None and unit is None:
            unit = FunctionalUnit.ALU
        super().__init__(
            defect_id,
            resolve_target_ops(ops, unit),
            base_rate,
            sensitivity,
            aging,
        )
        self.bit = bit
        self.mode = mode

    def _corrupt_lane(self, value: int) -> int:
        if self.mode == "flip":
            return flip_bit(value, self.bit)
        if self.mode == "set":
            return value | (1 << self.bit)
        return value & ~(1 << self.bit)

    def _corrupt(self, op, operands, result, rng):
        return _corrupt_scalar_or_vector(result, self._corrupt_lane, rng)


# A function, not an attribute: a defect's ``vars`` are its identity
# (fleet digests hash them), and this is derived from ``_swapped``.
@functools.lru_cache(maxsize=64)
def swap_triggers(swapped: FrozenSet[int], op: str) -> FrozenSet[int]:
    """The operand bytes whose ``op`` lookup reads a swapped S-box entry.

    A forward lookup reads address ``x``; an inverse lookup of ``y`` is
    perturbed when its *golden output* ``S^-1(y)`` is a swapped address
    (p applied on the way out), that is when ``y == S(s)`` for a swapped
    ``s``.
    """
    if op == Op.SBOX:
        return swapped
    return frozenset(AES_SBOX[s] for s in swapped)


class SboxPermutationDefect(DefectModel):
    """Deterministic wrong S-box entries: the self-inverting AES defect.

    The physical intuition: the S-box structure decodes its input
    address through broken logic, so a forward lookup of ``x`` reads the
    entry for ``p(x)`` where ``p`` is a fixed transposition: the
    defective box computes ``S'(x) = S(p(x))``.  The *inverse* lookup is
    served by the same physical structure searched in reverse, so it
    computes the exact functional inverse of the defective forward box:
    ``I'(y) = S'^-1(y) = p^-1(S^-1(y))``.  Every encryption stage is
    therefore still inverted exactly by the same core's decryption —
    encrypt+decrypt on the defective core is the identity — while a
    healthy core's ``S^-1`` does not invert ``S'``, so decrypting
    elsewhere yields gibberish (§2's self-inverting AES anecdote).

    The defect is deterministic (``base_rate`` is 1 by construction);
    its *observable* rate is the probability an input hits a swapped
    entry, which :meth:`trigger_fraction` reports as ``len(swaps)/256``.
    """

    def __init__(
        self,
        defect_id: str,
        swaps: Sequence[tuple[int, int]] = ((0x3A, 0xC5),),
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        super().__init__(
            defect_id,
            resolve_target_ops(ops=(Op.SBOX, Op.INV_SBOX)),
            base_rate=1.0,
            sensitivity=sensitivity,
            aging=aging,
        )
        if not swaps:
            raise ValueError("an S-box defect needs at least one swap")
        mapping = list(range(256))
        touched: set[int] = set()
        for a, b in swaps:
            if not (0 <= a < 256 and 0 <= b < 256):
                raise ValueError("swap entries must be bytes")
            if a in touched or b in touched or a == b:
                raise ValueError("swaps must be disjoint transpositions")
            touched.update((a, b))
            mapping[a], mapping[b] = mapping[b], mapping[a]
        self.permutation = tuple(mapping)
        self._swapped = frozenset(touched)

    def trigger_fraction(self, op: str) -> float:
        return len(self._swapped) / 256.0

    def quiet(self, op: str, values: Collection[int]) -> bool:
        """An S-box lookup is quiet unless its byte reads a swapped entry:
        :meth:`apply` returns before drawing when ``_triggered`` is False."""
        if op not in self.target_ops:
            return True
        return swap_triggers(self._swapped, op).isdisjoint(values)

    def _triggered(self, op: str, operands: tuple) -> bool:
        return operands[0] & 0xFF in swap_triggers(self._swapped, op)

    def _corrupt(self, op, operands, result, rng):
        value = operands[0] & 0xFF
        if op == Op.SBOX:
            return AES_SBOX[self.permutation[value]]
        # permutation is built from transpositions, so p == p^-1.
        return self.permutation[AES_INV_SBOX[value]]


class OperandPatternDefect(DefectModel):
    """Corruption gated on an operand bit pattern.

    Fires only when every operand matches ``(operand & mask) == value``;
    when it fires, XORs ``error`` into the result.  This models the
    paper's "usually the implementation-level and environmental details
    have to line up" — most data passes through correctly, one pattern
    reliably miscomputes.
    """

    def __init__(
        self,
        defect_id: str,
        mask: int,
        value: int,
        error: int = 1,
        base_rate: float = 1.0,
        ops: Iterable[str] | None = None,
        unit: FunctionalUnit | None = None,
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        if ops is None and unit is None:
            unit = FunctionalUnit.MUL_DIV
        super().__init__(
            defect_id,
            resolve_target_ops(ops, unit),
            base_rate,
            sensitivity,
            aging,
        )
        self.mask = mask
        self.value = value & mask
        self.error = error

    def trigger_fraction(self, op: str) -> float:
        # Each masked bit must match: probability 2**-popcount(mask)
        # per operand under uniform data; approximate with one operand.
        matched_bits = bin(self.mask).count("1")
        return 2.0 ** (-matched_bits)

    def _triggered(self, op: str, operands: tuple) -> bool:
        scalars = [x for x in operands if isinstance(x, int)]
        if not scalars:
            return False
        return all((x & self.mask) == self.value for x in scalars)

    def _corrupt(self, op, operands, result, rng):
        return _corrupt_scalar_or_vector(
            result, lambda lane: lane ^ self.error, rng
        )


class SharedLogicDefect(DefectModel):
    """A defect in a logic block shared by several units (§5).

    Bound to a :class:`~repro.silicon.units.LogicBlock`; every op whose
    datapath crosses the block is at risk.  The canonical instance uses
    ``SHUFFLE_NETWORK``, afflicting both block copies and vector ops.
    """

    def __init__(
        self,
        defect_id: str,
        block: LogicBlock = LogicBlock.SHUFFLE_NETWORK,
        bit: int = 13,
        base_rate: float = 1e-5,
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        super().__init__(
            defect_id,
            resolve_target_ops(block=block),
            base_rate,
            sensitivity,
            aging,
        )
        self.block = block
        self.bit = bit

    def _corrupt(self, op, operands, result, rng):
        return _corrupt_scalar_or_vector(
            result, lambda lane: flip_bit(lane, self.bit), rng
        )


class AtomicsDefect(DefectModel):
    """Violates lock/atomic semantics (§2).

    On a triggered CAS the broken comparator reports success regardless
    of the expected value (spurious success → mutual exclusion
    violated); on FETCH_ADD the addend is dropped (lost update); on
    XCHG the store is dropped (a lock release that never lands →
    deadlock).  Applications built on these primitives exhibit
    corrupted shared state and crashes — exactly the "violations of
    lock semantics leading to application data corruption and crashes"
    symptom.
    """

    def __init__(
        self,
        defect_id: str,
        base_rate: float = 1e-4,
        ops: Iterable[str] | None = None,
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        """``ops`` restricts the defect to a subset of the atomics unit
        (e.g. only XCHG — a broken store path on the release side)."""
        if ops is None:
            targets = resolve_target_ops(unit=FunctionalUnit.ATOMICS)
        else:
            targets = resolve_target_ops(ops=ops)
            atomics = resolve_target_ops(unit=FunctionalUnit.ATOMICS)
            if not targets <= atomics:
                raise ValueError("AtomicsDefect ops must be atomic operations")
        super().__init__(defect_id, targets, base_rate, sensitivity, aging)

    def _corrupt(self, op, operands, result, rng):
        if op == Op.CAS:
            # Broken comparator: swap "succeeds" regardless of expected.
            return operands[2]
        if op == Op.FETCH_ADD:
            return operands[0]  # addend dropped (lost update)
        if op == Op.XCHG:
            return operands[0]  # store dropped (release never lands)
        return result


class MachineCheckDefect(DefectModel):
    """Fail-noisy defect: raises a machine check instead of corrupting."""

    def __init__(
        self,
        defect_id: str,
        base_rate: float = 1e-6,
        ops: Iterable[str] | None = None,
        unit: FunctionalUnit | None = None,
        sensitivity: EnvironmentSensitivity | None = None,
        aging: AgingProfile = IMMEDIATE,
    ):
        if ops is None and unit is None:
            unit = FunctionalUnit.LOAD_STORE
        super().__init__(
            defect_id,
            resolve_target_ops(ops, unit),
            base_rate,
            sensitivity,
            aging,
        )
        self._core_id = "?"

    def bind_core(self, core_id: str) -> None:
        """Record the owning core id for error attribution."""
        self._core_id = core_id

    def _corrupt(self, op, operands, result, rng):
        raise MachineCheckError(self._core_id, op)
