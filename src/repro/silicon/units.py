"""Functional units and the operation → unit mapping.

The paper (§5) observes that modern CPUs "are gradually becoming sets of
discrete accelerators around a shared register file", which makes CEEs
highly specific: a defect in one execution unit corrupts only the
instructions that flow through it while the rest of the core stays
correct.  This module defines the simulated core's functional units and
assigns every primitive operation to exactly one unit, plus a set of
*logic blocks* that may be shared between units.

Shared logic blocks model the paper's observation (§5) that "the same
mercurial core manifests CEEs both with certain data-copy operations and
with certain vector operations.  We discovered that both kinds of
operations share the same hardware logic".  A defect bound to the
``SHUFFLE_NETWORK`` block therefore afflicts both ``copy`` and the
vector permute/arithmetic lanes.
"""

from __future__ import annotations

import enum
from typing import FrozenSet


class FunctionalUnit(enum.Enum):
    """A discrete execution resource inside one core."""

    ALU = "alu"
    MUL_DIV = "mul_div"
    VECTOR = "vector"
    LOAD_STORE = "load_store"
    CRYPTO = "crypto"
    ATOMICS = "atomics"
    BRANCH = "branch"


class LogicBlock(enum.Enum):
    """A lower-level logic structure potentially shared between units.

    Defects may be attached to a logic block instead of a whole unit,
    which yields the cross-unit correlated failures reported in §5.
    """

    ADDER_TREE = "adder_tree"
    BOOTH_MULTIPLIER = "booth_multiplier"
    SHIFT_ROTATE = "shift_rotate"
    SHUFFLE_NETWORK = "shuffle_network"  # shared by copy + vector ops
    SBOX_TABLE = "sbox_table"
    AGU = "address_generation"
    LOCK_PIPELINE = "lock_pipeline"
    COMPARATOR = "comparator"


class Op:
    """Namespace of primitive operation mnemonics.

    Every computation performed by the workload substrates is expressed
    in terms of these operations and executed through
    :meth:`repro.silicon.core.Core.execute`, which is the single choke
    point where defects can corrupt results.
    """

    # Scalar ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    NEG = "neg"
    SHL = "shl"
    SHR = "shr"
    ROTL = "rotl"
    CMP = "cmp"
    POPCNT = "popcnt"

    # Multiplier / divider
    MUL = "mul"
    MULH = "mulh"
    DIV = "div"
    MOD = "mod"

    # Vector unit (operands are equal-length tuples of lanes)
    VADD = "vadd"
    VSUB = "vsub"
    VMUL = "vmul"
    VXOR = "vxor"
    VAND = "vand"
    VOR = "vor"
    VSHL = "vshl"
    VSHR = "vshr"
    VDOT = "vdot"
    VSUM = "vsum"
    VPERM = "vperm"

    # Load/store + block copy
    LOAD = "load"
    STORE = "store"
    COPY = "copy"

    # Crypto unit (AES primitives)
    SBOX = "sbox"
    INV_SBOX = "inv_sbox"
    GFMUL = "gfmul"

    # Atomics / locking
    CAS = "cas"
    FETCH_ADD = "fetch_add"
    XCHG = "xchg"

    # Branch resolution
    BEQ = "beq"
    BLT = "blt"


#: operation → functional unit
OP_UNIT: dict[str, FunctionalUnit] = {
    Op.ADD: FunctionalUnit.ALU,
    Op.SUB: FunctionalUnit.ALU,
    Op.AND: FunctionalUnit.ALU,
    Op.OR: FunctionalUnit.ALU,
    Op.XOR: FunctionalUnit.ALU,
    Op.NOT: FunctionalUnit.ALU,
    Op.NEG: FunctionalUnit.ALU,
    Op.SHL: FunctionalUnit.ALU,
    Op.SHR: FunctionalUnit.ALU,
    Op.ROTL: FunctionalUnit.ALU,
    Op.CMP: FunctionalUnit.ALU,
    Op.POPCNT: FunctionalUnit.ALU,
    Op.MUL: FunctionalUnit.MUL_DIV,
    Op.MULH: FunctionalUnit.MUL_DIV,
    Op.DIV: FunctionalUnit.MUL_DIV,
    Op.MOD: FunctionalUnit.MUL_DIV,
    Op.VADD: FunctionalUnit.VECTOR,
    Op.VSUB: FunctionalUnit.VECTOR,
    Op.VMUL: FunctionalUnit.VECTOR,
    Op.VXOR: FunctionalUnit.VECTOR,
    Op.VAND: FunctionalUnit.VECTOR,
    Op.VOR: FunctionalUnit.VECTOR,
    Op.VSHL: FunctionalUnit.VECTOR,
    Op.VSHR: FunctionalUnit.VECTOR,
    Op.VDOT: FunctionalUnit.VECTOR,
    Op.VSUM: FunctionalUnit.VECTOR,
    Op.VPERM: FunctionalUnit.VECTOR,
    Op.LOAD: FunctionalUnit.LOAD_STORE,
    Op.STORE: FunctionalUnit.LOAD_STORE,
    Op.COPY: FunctionalUnit.LOAD_STORE,
    Op.SBOX: FunctionalUnit.CRYPTO,
    Op.INV_SBOX: FunctionalUnit.CRYPTO,
    Op.GFMUL: FunctionalUnit.CRYPTO,
    Op.CAS: FunctionalUnit.ATOMICS,
    Op.FETCH_ADD: FunctionalUnit.ATOMICS,
    Op.XCHG: FunctionalUnit.ATOMICS,
    Op.BEQ: FunctionalUnit.BRANCH,
    Op.BLT: FunctionalUnit.BRANCH,
}

#: operation → logic blocks its result flows through
OP_LOGIC_BLOCKS: dict[str, FrozenSet[LogicBlock]] = {
    Op.ADD: frozenset({LogicBlock.ADDER_TREE}),
    Op.SUB: frozenset({LogicBlock.ADDER_TREE}),
    Op.AND: frozenset(),
    Op.OR: frozenset(),
    Op.XOR: frozenset(),
    Op.NOT: frozenset(),
    Op.NEG: frozenset({LogicBlock.ADDER_TREE}),
    Op.SHL: frozenset({LogicBlock.SHIFT_ROTATE}),
    Op.SHR: frozenset({LogicBlock.SHIFT_ROTATE}),
    Op.ROTL: frozenset({LogicBlock.SHIFT_ROTATE}),
    Op.CMP: frozenset({LogicBlock.COMPARATOR}),
    Op.POPCNT: frozenset({LogicBlock.ADDER_TREE}),
    Op.MUL: frozenset({LogicBlock.BOOTH_MULTIPLIER}),
    Op.MULH: frozenset({LogicBlock.BOOTH_MULTIPLIER}),
    Op.DIV: frozenset({LogicBlock.BOOTH_MULTIPLIER}),
    Op.MOD: frozenset({LogicBlock.BOOTH_MULTIPLIER}),
    Op.VADD: frozenset({LogicBlock.ADDER_TREE, LogicBlock.SHUFFLE_NETWORK}),
    Op.VSUB: frozenset({LogicBlock.ADDER_TREE, LogicBlock.SHUFFLE_NETWORK}),
    Op.VMUL: frozenset({LogicBlock.BOOTH_MULTIPLIER, LogicBlock.SHUFFLE_NETWORK}),
    Op.VXOR: frozenset({LogicBlock.SHUFFLE_NETWORK}),
    Op.VAND: frozenset({LogicBlock.SHUFFLE_NETWORK}),
    Op.VOR: frozenset({LogicBlock.SHUFFLE_NETWORK}),
    Op.VSHL: frozenset({LogicBlock.SHIFT_ROTATE, LogicBlock.SHUFFLE_NETWORK}),
    Op.VSHR: frozenset({LogicBlock.SHIFT_ROTATE, LogicBlock.SHUFFLE_NETWORK}),
    Op.VDOT: frozenset({LogicBlock.BOOTH_MULTIPLIER, LogicBlock.ADDER_TREE}),
    Op.VSUM: frozenset({LogicBlock.ADDER_TREE}),
    Op.VPERM: frozenset({LogicBlock.SHUFFLE_NETWORK}),
    Op.LOAD: frozenset({LogicBlock.AGU}),
    Op.STORE: frozenset({LogicBlock.AGU}),
    Op.COPY: frozenset({LogicBlock.AGU, LogicBlock.SHUFFLE_NETWORK}),
    Op.SBOX: frozenset({LogicBlock.SBOX_TABLE}),
    Op.INV_SBOX: frozenset({LogicBlock.SBOX_TABLE}),
    Op.GFMUL: frozenset({LogicBlock.BOOTH_MULTIPLIER}),
    Op.CAS: frozenset({LogicBlock.LOCK_PIPELINE, LogicBlock.COMPARATOR}),
    Op.FETCH_ADD: frozenset({LogicBlock.LOCK_PIPELINE, LogicBlock.ADDER_TREE}),
    Op.XCHG: frozenset({LogicBlock.LOCK_PIPELINE}),
    Op.BEQ: frozenset({LogicBlock.COMPARATOR}),
    Op.BLT: frozenset({LogicBlock.COMPARATOR}),
}

#: all known operation mnemonics
ALL_OPS: tuple[str, ...] = tuple(OP_UNIT)

#: unit → operations, useful for building unit-targeted screening tests
UNIT_OPS: dict[FunctionalUnit, tuple[str, ...]] = {
    unit: tuple(op for op, u in OP_UNIT.items() if u is unit)
    for unit in FunctionalUnit
}


def unit_of(op: str) -> FunctionalUnit:
    """Return the functional unit that executes ``op``.

    Raises:
        KeyError: if ``op`` is not a known operation mnemonic.
    """
    return OP_UNIT[op]


def ops_touching(block: LogicBlock) -> tuple[str, ...]:
    """Return every operation whose datapath includes ``block``."""
    return tuple(op for op, blocks in OP_LOGIC_BLOCKS.items() if block in blocks)
