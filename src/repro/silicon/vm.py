"""Interpreter executing ISA programs on a (possibly mercurial) core.

Every instruction that exercises a functional unit is routed through
:meth:`Core.execute`, so defects corrupt exactly the architectural
behaviour a real mercurial core would.  Traps (division by zero,
out-of-range memory, budget exhaustion) are reported in the result
rather than raised, because crashes *are data* for the detection layer
("crashes of user processes" are one of the paper's §6 signals).
Machine checks propagate as :class:`MachineCheckError`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, TYPE_CHECKING

from repro.silicon.core import Core
from repro.silicon.isa import (
    Instruction,
    N_SCALAR_REGS,
    N_VECTOR_REGS,
    VLEN,
    core_op,
)
from repro.silicon.units import Op

if TYPE_CHECKING:  # annotation-only: keeps silicon below workloads
    from repro.workloads.base import CoreLike

#: words of data memory every program runs against
MEMORY_WORDS = 4096
DEFAULT_STEP_BUDGET = 200_000


@dataclasses.dataclass(slots=True)
class VmResult:
    """Outcome of one program run."""

    registers: list[int]
    vregisters: list[tuple[int, ...]]
    memory: list[int]
    steps: int
    halted: bool
    trap: str | None = None

    @property
    def crashed(self) -> bool:
        """Did the run end in a trap rather than a halt?"""
        return self.trap is not None


class Vm:
    """A tiny machine: one core, registers, flat memory.

    ``core`` is the VM's op-stream hook point: anything satisfying
    :class:`~repro.workloads.base.CoreLike` (``core_id`` plus
    ``execute``) can stand in for a raw :class:`Core`.  In particular
    the instruction-level checking wrappers —
    :class:`~repro.mitigation.instrcheck.policies.IthicaCheckedCore`
    and :class:`~repro.mitigation.instrcheck.policies.MeekCheckedCore`
    — slot in here unchanged, so whole ISA programs run under per-op
    duplicate execution or heterogeneous checker pairing without the
    interpreter knowing.
    """

    def __init__(
        self,
        core: Core | CoreLike,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        self.core = core
        self.step_budget = step_budget

    def run(
        self,
        program: Sequence[Instruction],
        memory_image: Sequence[int] = (),
        registers: Sequence[int] = (),
    ) -> VmResult:
        """Execute ``program`` to halt, trap, or budget exhaustion."""
        regs = [0] * N_SCALAR_REGS
        for index, value in enumerate(registers):
            regs[index] = value
        vregs: list[tuple[int, ...]] = [(0,) * VLEN for _ in range(N_VECTOR_REGS)]
        memory = [0] * MEMORY_WORDS
        for index, value in enumerate(memory_image):
            memory[index] = value

        core = self.core
        pc = 0
        steps = 0
        trap: str | None = None
        halted = False

        def load_vec(base: int) -> tuple[int, ...]:
            if base < 0 or base + VLEN > len(memory):
                raise IndexError
            return tuple(memory[base:base + VLEN])

        while pc < len(program):
            if steps >= self.step_budget:
                trap = "budget_exhausted"
                break
            steps += 1
            instruction = program[pc]
            mnemonic = instruction.mnemonic
            ops = instruction.operands
            pc += 1
            try:
                if mnemonic == "halt":
                    halted = True
                    break
                elif mnemonic == "li":
                    regs[ops[0]] = ops[1]
                elif mnemonic == "mv":
                    regs[ops[0]] = regs[ops[1]]
                elif mnemonic == "jmp":
                    pc = ops[0]
                elif mnemonic in ("beq", "bne", "blt"):
                    op = core_op(mnemonic)
                    taken = core.execute(op, regs[ops[0]], regs[ops[1]])
                    if mnemonic == "bne":
                        taken = 1 - taken
                    if taken:
                        pc = ops[2]
                elif mnemonic == "ld":
                    address = regs[ops[1]]
                    regs[ops[0]] = core.execute(Op.LOAD, memory[address])
                elif mnemonic == "st":
                    address = regs[ops[0]]
                    memory[address] = core.execute(Op.STORE, regs[ops[1]])
                elif mnemonic == "cpy":
                    dst, src, length = regs[ops[0]], regs[ops[1]], ops[2]
                    if src < 0 or dst < 0 or src + length > len(memory) \
                            or dst + length > len(memory):
                        raise IndexError
                    chunk = core.execute(Op.COPY, tuple(memory[src:src + length]))
                    memory[dst:dst + length] = list(chunk)
                elif mnemonic == "cas":
                    address = regs[ops[1]]
                    new = core.execute(
                        Op.CAS, memory[address], regs[ops[2]], ops[3]
                    )
                    regs[ops[0]] = memory[address]
                    memory[address] = new
                elif mnemonic == "fadd":
                    address = regs[ops[1]]
                    new = core.execute(Op.FETCH_ADD, memory[address], regs[ops[2]])
                    regs[ops[0]] = new
                    memory[address] = new
                elif mnemonic == "xchg":
                    address = regs[ops[1]]
                    old = memory[address]
                    memory[address] = core.execute(Op.XCHG, old, regs[ops[2]])
                    regs[ops[0]] = old
                elif mnemonic == "vld":
                    vregs[ops[0]] = tuple(
                        core.execute(Op.LOAD, lane)
                        for lane in load_vec(regs[ops[1]])
                    )
                elif mnemonic == "vst":
                    base = regs[ops[0]]
                    if base < 0 or base + VLEN > len(memory):
                        raise IndexError
                    for offset, lane in enumerate(vregs[ops[1]]):
                        memory[base + offset] = core.execute(Op.STORE, lane)
                elif mnemonic in ("vadd", "vsub", "vmul", "vxor", "vand", "vor"):
                    op = core_op(mnemonic)
                    vregs[ops[0]] = core.execute(op, vregs[ops[1]], vregs[ops[2]])
                elif mnemonic == "vdot":
                    regs[ops[0]] = core.execute(Op.VDOT, vregs[ops[1]], vregs[ops[2]])
                elif mnemonic == "vsum":
                    regs[ops[0]] = core.execute(Op.VSUM, vregs[ops[1]])
                else:
                    # Generic 3-operand / 2-operand scalar compute.
                    op = core_op(mnemonic)
                    if op is None:
                        trap = f"unimplemented:{mnemonic}"
                        break
                    sources = [regs[r] for r in ops[1:]]
                    regs[ops[0]] = core.execute(op, *sources)
            except ZeroDivisionError:
                trap = "divide_by_zero"
                break
            except IndexError:
                trap = "segfault"
                break

        return VmResult(
            registers=regs,
            vregisters=vregs,
            memory=memory,
            steps=steps,
            halted=halted,
            trap=trap,
        )
