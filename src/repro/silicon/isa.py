"""A small register ISA whose instructions map onto functional units.

The paper calls for "cycle-level CPU simulators that allow injection of
known CEE behavior" (§9).  This ISA is the affordable version of that:
screening tests and micro-workloads are written as programs whose
instructions execute through :class:`~repro.silicon.core.Core`, so a
defect bound to (say) the vector unit corrupts exactly the ``v*``
instructions of a program and nothing else.

Machine model:

- 16 scalar registers ``r0``–``r15`` (64-bit unsigned),
- 8 vector registers ``v0``–``v7`` of ``VLEN`` 64-bit lanes,
- a flat word-addressed memory,
- a program counter; branches target labels resolved at assembly time.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Tuple

from repro.silicon.units import Op

N_SCALAR_REGS = 16
N_VECTOR_REGS = 8
VLEN = 8


@dataclasses.dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction: mnemonic plus operand tuple.

    Operand meaning depends on the mnemonic; see :data:`FORMATS`.
    Register operands are indices, immediates are ints, branch targets
    are absolute instruction addresses (filled in by the assembler).
    """

    mnemonic: str
    operands: Tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.mnemonic} {', '.join(map(str, self.operands))}"


#: mnemonic → (operand format, core op or None)
#: formats: d=dest reg, a/b=src regs, i=immediate, t=branch target,
#:          D/A/B=vector regs, m=memory address register
FORMATS: dict[str, tuple[str, str | None]] = {
    # register moves / immediates (no functional unit exercised)
    "li": ("di", None),
    "mv": ("da", None),
    # scalar ALU
    "add": ("dab", Op.ADD),
    "sub": ("dab", Op.SUB),
    "and": ("dab", Op.AND),
    "or": ("dab", Op.OR),
    "xor": ("dab", Op.XOR),
    "shl": ("dab", Op.SHL),
    "shr": ("dab", Op.SHR),
    "rotl": ("dab", Op.ROTL),
    "cmp": ("dab", Op.CMP),
    "not": ("da", Op.NOT),
    "neg": ("da", Op.NEG),
    "popcnt": ("da", Op.POPCNT),
    # multiplier / divider
    "mul": ("dab", Op.MUL),
    "mulh": ("dab", Op.MULH),
    "div": ("dab", Op.DIV),
    "mod": ("dab", Op.MOD),
    # crypto
    "sbox": ("da", Op.SBOX),
    "isbox": ("da", Op.INV_SBOX),
    "gfmul": ("dab", Op.GFMUL),
    # memory
    "ld": ("da", Op.LOAD),      # rd <- mem[ra]
    "st": ("ab", Op.STORE),     # mem[ra] <- rb
    "cpy": ("abi", Op.COPY),    # mem[ra..] <- mem[rb..], i words
    # atomics on memory
    "cas": ("dabi", Op.CAS),    # rd <- CAS(mem[ra], rb, imm-reg rc)
    "fadd": ("dab", Op.FETCH_ADD),  # rd <- mem[ra] += rb (returns new)
    "xchg": ("dab", Op.XCHG),   # rd <- old mem[ra]; mem[ra] <- rb
    # vector
    "vld": ("Da", Op.LOAD),     # vD <- mem[ra .. ra+VLEN)
    "vst": ("aB", Op.STORE),    # mem[ra ..] <- vB
    "vadd": ("DAB", Op.VADD),
    "vsub": ("DAB", Op.VSUB),
    "vmul": ("DAB", Op.VMUL),
    "vxor": ("DAB", Op.VXOR),
    "vand": ("DAB", Op.VAND),
    "vor": ("DAB", Op.VOR),
    "vdot": ("dAB", Op.VDOT),
    "vsum": ("dA", Op.VSUM),
    # control flow
    "beq": ("abt", Op.BEQ),
    "bne": ("abt", Op.BEQ),
    "blt": ("abt", Op.BLT),
    "jmp": ("t", None),
    "halt": ("", None),
}


def validate(instruction: Instruction) -> None:
    """Check operand count and register ranges; raise ValueError if bad."""
    fmt_entry = FORMATS.get(instruction.mnemonic)
    if fmt_entry is None:
        raise ValueError(f"unknown mnemonic {instruction.mnemonic!r}")
    fmt, _ = fmt_entry
    if len(instruction.operands) != len(fmt):
        raise ValueError(
            f"{instruction.mnemonic} expects {len(fmt)} operands, "
            f"got {len(instruction.operands)}"
        )
    for kind, operand in zip(fmt, instruction.operands):
        if kind in "dab" and not 0 <= operand < N_SCALAR_REGS:
            raise ValueError(
                f"scalar register out of range in {instruction}: {operand}"
            )
        if kind in "DAB" and not 0 <= operand < N_VECTOR_REGS:
            raise ValueError(
                f"vector register out of range in {instruction}: {operand}"
            )
        if kind in "it" and operand < 0:
            raise ValueError(f"negative immediate/target in {instruction}")


@functools.lru_cache(maxsize=None)
def core_op(mnemonic: str) -> str | None:
    """The :class:`~repro.silicon.units.Op` a mnemonic exercises (or None)."""
    return FORMATS[mnemonic][1]
