"""The screening-test corpus.

"We have a modest corpus of code serving as test cases, selected based
on intuition we developed from experience with production incidents,
core-dump evidence, and failure-mode guesses.  This corpus includes
real-code snippets, interesting libraries (e.g., compression, hash,
math, cryptography, copying, locking, ...), and specially-written
tests." (§2)

Our corpus has the same two species:

- *specially-written tests*: ISA torture programs targeting one
  functional unit each, run in the VM and compared against a cached
  golden run;
- *library tests*: real workloads (AES cross-check, compression
  round-trip, locked counter) run on the suspect core with results
  compared against a healthy reference core.

Each test knows which units it exercises, so coverage analysis can
report which defect classes a campaign could even have seen (§4's
"depends on test coverage" made measurable).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

import numpy as np

from repro.detection.screener import ScreenResult
from repro.silicon.assembler import assemble
from repro.silicon.core import Core
from repro.silicon.errors import MachineCheckError
from repro.silicon.units import FunctionalUnit
from repro.silicon.vm import Vm, VmResult
from repro.workloads.base import digest_bytes, digest_ints
from repro.workloads.compression import compress, decompress
from repro.workloads.crypto import encrypt_ecb
from repro.workloads.locking import run_locked_counter


@dataclasses.dataclass
class ScreeningTest:
    """One corpus entry: a pass/fail probe of specific units.

    ``target_units`` and ``approx_ops`` are the entire input to corpus
    distillation (:func:`repro.detection.fleetscreen.distill`): the
    greedy cover only needs to know what a test sees and what it costs.
    """

    name: str
    target_units: frozenset
    _runner: Callable[[Core], bool]
    approx_ops: int = 0

    def run(self, core: Core) -> bool:
        """True = passed (no corruption observed)."""
        return self._runner(core)


def _vm_digest(result: VmResult) -> int:
    if result.trap is not None:
        return digest_bytes(result.trap.encode())
    return digest_ints(result.registers) ^ digest_ints(result.memory)


def _program_test(
    name: str,
    units: Iterable[FunctionalUnit],
    source: str,
    memory_image: list[int] | None = None,
) -> ScreeningTest:
    """Build a VM-program test with a lazily-cached golden digest."""
    program = assemble(source)
    memory_image = memory_image or []
    golden_digest: list[int | None] = [None]

    def runner(core: Core) -> bool:
        if golden_digest[0] is None:
            reference = Core("oracle/screen")
            golden = Vm(reference).run(program, memory_image=memory_image)
            if golden.trap is not None:
                raise AssertionError(
                    f"screening program {name} traps on a healthy core: "
                    f"{golden.trap}"
                )
            golden_digest[0] = _vm_digest(golden)
        observed = Vm(core).run(program, memory_image=memory_image)
        return _vm_digest(observed) == golden_digest[0]

    # Approximate dynamic op count from one golden run.
    reference = Core("oracle/cost")
    golden_run = Vm(reference).run(program, memory_image=memory_image)
    return ScreeningTest(
        name=name,
        target_units=frozenset(units),
        _runner=runner,
        approx_ops=reference.ops_executed if golden_run else 0,
    )


# --------------------------------------------------------------------
# Specially-written torture programs, one per functional unit
# --------------------------------------------------------------------

def _alu_torture(seed: int, iterations: int = 160) -> str:
    return f"""
        li r1, {0x9E3779B97F4A7C15 ^ (seed * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF}
        li r2, 0                ; accumulator
        li r4, {iterations}
        li r5, 1
        li r6, 0x5DEECE66D
    loop:
        xor r1, r1, r2
        add r2, r2, r1
        rotl r1, r1, r5
        or r3, r1, r6
        and r3, r3, r2
        sub r2, r2, r3
        shl r3, r1, r5
        shr r7, r1, r5
        xor r2, r2, r3
        xor r2, r2, r7
        popcnt r3, r2
        add r2, r2, r3
        sub r4, r4, r5
        bne r4, r0, loop
        halt
    """


def _muldiv_torture(seed: int, iterations: int = 120) -> str:
    return f"""
        li r1, {(seed * 0x9E3779B1 + 12345) & 0xFFFFFFFF | 1}
        li r2, 0
        li r4, {iterations}
        li r5, 1
        li r6, 0x5DEECE66D
        li r7, 0xFFFF
    loop:
        mul r1, r1, r6
        add r1, r1, r5
        mulh r3, r1, r6
        add r2, r2, r3
        and r3, r1, r7
        add r3, r3, r5        ; never zero
        div r8, r2, r3
        mod r9, r2, r3
        add r2, r2, r8
        xor r2, r2, r9
        sub r4, r4, r5
        bne r4, r0, loop
        halt
    """


def _vector_torture(seed: int, iterations: int = 60) -> str:
    # memory 0..63 pre-seeded by the memory image
    return f"""
        li r1, 0            ; base a
        li r2, 8            ; base b
        li r4, {iterations}
        li r5, 1
        li r6, 16           ; scratch base
    loop:
        vld v0, r1
        vld v1, r2
        vadd v2, v0, v1
        vmul v3, v2, v1
        vxor v2, v3, v0
        vdot r7, v2, v1
        add r3, r3, r7
        vsum r8, v3
        xor r3, r3, r8
        vst r6, v2
        vld v4, r6
        vsub v5, v4, v0
        vor v0, v5, v1
        sub r4, r4, r5
        bne r4, r0, loop
        halt
    """


def _copy_torture(seed: int, iterations: int = 40) -> str:
    return f"""
        li r1, 0             ; src
        li r2, 128           ; dst
        li r4, {iterations}
        li r5, 1
    loop:
        cpy r2, r1, 64
        cpy r1, r2, 64
        ld r6, r1
        add r3, r3, r6
        add r1, r1, r5
        sub r1, r1, r5
        sub r4, r4, r5
        bne r4, r0, loop
        ; fold a checksum of the copied region
        li r1, 128
        li r4, 64
    sumloop:
        ld r6, r1
        add r3, r3, r6
        add r1, r1, r5
        sub r4, r4, r5
        bne r4, r0, sumloop
        halt
    """


def _sbox_walk(seed: int) -> str:
    # Exhaustive: every S-box and inverse-S-box entry, folded.
    return """
        li r1, 0
        li r2, 0
        li r4, 256
        li r5, 1
    loop:
        sbox r3, r1
        add r2, r2, r3
        isbox r6, r3
        xor r2, r2, r6
        gfmul r7, r3, r1
        add r2, r2, r7
        add r1, r1, r5
        sub r4, r4, r5
        bne r4, r0, loop
        halt
    """


def _atomics_torture(seed: int, iterations: int = 80) -> str:
    return f"""
        li r1, 10            ; lock cell address
        li r2, 11            ; counter cell address
        li r4, {iterations}
        li r5, 1
        li r7, 7
    loop:
        cas r6, r1, r0, 1    ; try lock: expect 0, set 1
        fadd r8, r2, r5      ; counter += 1
        fadd r8, r2, r7      ; counter += 7
        xchg r9, r1, r0      ; unlock
        add r3, r3, r8
        xor r3, r3, r9
        sub r4, r4, r5
        bne r4, r0, loop
        halt
    """


def _branch_torture(seed: int, iterations: int = 120) -> str:
    return f"""
        li r1, {(seed * 2654435761 + 1) & 0xFFFFFFFF}
        li r2, 0
        li r4, {iterations}
        li r5, 1
        li r6, 0x5DEECE66D
        li r7, 3
    loop:
        mul r1, r1, r6
        add r1, r1, r5
        mod r8, r1, r7
        beq r8, r0, tag0
        blt r8, r7, tag1
        jmp tail
    tag0:
        add r2, r2, r5
        jmp tail
    tag1:
        shl r2, r2, r5
        xor r2, r2, r1
    tail:
        sub r4, r4, r5
        bne r4, r0, loop
        halt
    """


def _vector_memory_image(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**62, size=256, dtype=np.uint64)]


# --------------------------------------------------------------------
# Library tests (real-code snippets)
# --------------------------------------------------------------------

def _aes_cross_check(seed: int) -> ScreeningTest:
    """Encrypt on the suspect core, compare with a healthy ciphertext.

    This is the test that catches the self-inverting AES defect, which
    the round-trip self-check cannot (E3).
    """
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
    key = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
    expected: list[bytes | None] = [None]

    def runner(core: Core) -> bool:
        if expected[0] is None:
            reference = Core("oracle/aes")
            expected[0] = encrypt_ecb(reference, data, key)
        return encrypt_ecb(core, data, key) == expected[0]

    return ScreeningTest(
        name=f"lib:aes_cross_check/{seed}",
        target_units=frozenset({FunctionalUnit.CRYPTO, FunctionalUnit.ALU}),
        _runner=runner,
        approx_ops=5000,
    )


def _compression_roundtrip(seed: int) -> ScreeningTest:
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(20):
        run = bytes([int(rng.integers(65, 91))]) * int(rng.integers(2, 10))
        noise = rng.integers(0, 256, size=6, dtype=np.uint8).tobytes()
        pieces.append(run + noise)
    data = b"".join(pieces)
    expected: list[int | None] = [None]

    def runner(core: Core) -> bool:
        if expected[0] is None:
            reference = Core("oracle/lz")
            expected[0] = digest_bytes(compress(reference, data))
        try:
            blob = compress(core, data)
            if digest_bytes(blob) != expected[0]:
                return False
            return decompress(core, blob) == data
        except Exception:
            return False

    return ScreeningTest(
        name=f"lib:compression/{seed}",
        target_units=frozenset(
            {FunctionalUnit.BRANCH, FunctionalUnit.ALU, FunctionalUnit.LOAD_STORE}
        ),
        _runner=runner,
        approx_ops=20000,
    )


def _locking_test(seed: int) -> ScreeningTest:
    def runner(core: Core) -> bool:
        shared, hung = run_locked_counter(core, n_threads=3, iterations=20)
        return not hung and shared.counter == 60

    return ScreeningTest(
        name=f"lib:locking/{seed}",
        target_units=frozenset(
            {FunctionalUnit.ATOMICS, FunctionalUnit.ALU, FunctionalUnit.LOAD_STORE}
        ),
        _runner=runner,
        approx_ops=1500,
    )


def make_targeted_test(
    name: str,
    op: str,
    operand_sets: list[tuple],
    units: Iterable[FunctionalUnit],
) -> ScreeningTest:
    """Build a 'new automatable test' from a root-caused failure mode.

    §6 describes extracting confessions "often after first developing a
    new automatable test": once an incident reveals *which operands*
    miscompute (e.g. an operand-pattern defect that generic torture
    misses), engineers encode exactly those operands as a regression
    test and add it to the corpus.  The golden answers come from host
    semantics, not from any core.
    """
    if not operand_sets:
        raise ValueError("need at least one operand set")

    def runner(core: Core) -> bool:
        for operands in operand_sets:
            if core.execute(op, *operands) != core.golden(op, *operands):
                return False
        return True

    return ScreeningTest(
        name=name,
        target_units=frozenset(units),
        _runner=runner,
        approx_ops=len(operand_sets),
    )


# --------------------------------------------------------------------
# Corpus assembly
# --------------------------------------------------------------------

class TestCorpus:
    """A collection of screening tests with coverage accounting."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, tests: list[ScreeningTest]):
        if not tests:
            raise ValueError("empty corpus")
        self.tests = tests

    @classmethod
    def standard(cls, seeds: Iterable[int] = (1, 2)) -> "TestCorpus":
        """The default corpus: per-unit torture + library tests.

        Several seeds per program vary data patterns, because §2 warns
        "data patterns can affect corruption rates".
        """
        tests: list[ScreeningTest] = []
        for seed in seeds:
            tests.extend(
                [
                    _program_test(
                        f"isa:alu/{seed}", {FunctionalUnit.ALU},
                        _alu_torture(seed),
                    ),
                    _program_test(
                        f"isa:muldiv/{seed}", {FunctionalUnit.MUL_DIV},
                        _muldiv_torture(seed),
                    ),
                    _program_test(
                        f"isa:vector/{seed}", {FunctionalUnit.VECTOR},
                        _vector_torture(seed),
                        memory_image=_vector_memory_image(seed),
                    ),
                    _program_test(
                        f"isa:copy/{seed}", {FunctionalUnit.LOAD_STORE},
                        _copy_torture(seed),
                        memory_image=_vector_memory_image(seed + 100),
                    ),
                    _program_test(
                        f"isa:crypto/{seed}", {FunctionalUnit.CRYPTO},
                        _sbox_walk(seed),
                    ),
                    _program_test(
                        f"isa:atomics/{seed}", {FunctionalUnit.ATOMICS},
                        _atomics_torture(seed),
                    ),
                    _program_test(
                        f"isa:branch/{seed}", {FunctionalUnit.BRANCH},
                        _branch_torture(seed),
                    ),
                    _aes_cross_check(seed),
                    _compression_roundtrip(seed),
                    _locking_test(seed),
                ]
            )
        return cls(tests)

    @classmethod
    def minimal(cls) -> "TestCorpus":
        """A cheap corpus (one seed, no library tests) for online use."""
        seed = 1
        return cls(
            [
                _program_test(f"isa:alu/{seed}", {FunctionalUnit.ALU},
                              _alu_torture(seed, iterations=60)),
                _program_test(f"isa:muldiv/{seed}", {FunctionalUnit.MUL_DIV},
                              _muldiv_torture(seed, iterations=40)),
                _program_test(f"isa:vector/{seed}", {FunctionalUnit.VECTOR},
                              _vector_torture(seed, iterations=20),
                              memory_image=_vector_memory_image(seed)),
                _program_test(f"isa:copy/{seed}", {FunctionalUnit.LOAD_STORE},
                              _copy_torture(seed, iterations=12),
                              memory_image=_vector_memory_image(seed + 100)),
                _program_test(f"isa:crypto/{seed}", {FunctionalUnit.CRYPTO},
                              _sbox_walk(seed)),
                _program_test(f"isa:atomics/{seed}", {FunctionalUnit.ATOMICS},
                              _atomics_torture(seed, iterations=30)),
                _program_test(f"isa:branch/{seed}", {FunctionalUnit.BRANCH},
                              _branch_torture(seed, iterations=40)),
            ]
        )

    def add_test(self, test: ScreeningTest) -> None:
        """Grow the corpus — §6's 'expanded to new classes of CEEs'."""
        self.tests.append(test)

    def covered_units(self) -> frozenset:
        """Union of every test's target units — what this corpus can see."""
        covered: set = set()
        for test in self.tests:
            covered |= test.target_units
        return frozenset(covered)

    def total_ops(self) -> int:
        """Run cost of one full battery pass, in primitive ops."""
        return sum(test.approx_ops for test in self.tests)

    def screen(self, core: Core, repetitions: int = 1) -> ScreenResult:
        """Run the whole corpus ``repetitions`` times against one core."""
        result = ScreenResult(core_id=core.core_id, passed=True)
        for _ in range(repetitions):
            for test in self.tests:
                result.tests_run += 1
                result.ops_cost += test.approx_ops
                try:
                    ok = test.run(core)
                except MachineCheckError:
                    result.machine_checks += 1
                    result.passed = False
                    continue
                except Exception:
                    # A test that *crashes* on the suspect core is a
                    # confession too — §2's "wrong answers detected
                    # nearly immediately through ... exceptions".
                    ok = False
                if not ok:
                    result.failed_tests.append(test.name)
                    result.passed = False
        return result
