"""Hash functions computed through a core.

The paper's test corpus includes "interesting libraries (e.g.,
compression, hash, math, cryptography, copying, locking, ...)" (§2).
These hashes are implemented from scratch with every arithmetic step
routed through the core, so a defective ALU or multiplier corrupts the
digest — the classic way checksum mismatches surfaced CEEs in
production storage systems.
"""

from __future__ import annotations

from repro.workloads.base import (
    CoreLike,
    WorkloadResult,
    credit_untargeted,
    digest_bytes,
    digest_ints,
)
from repro.silicon.golden import MASK64
from repro.silicon.units import Op

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_CRC64_POLY = 0x42F0E1EBA9EA3693

# Each primitive below is a sequential stream over a fixed op set.  It
# declares that set and its exact op count to the core; where no defect
# of the core targets any of those ops (``credit_untargeted``) the
# stream is golden by construction and a host-speed kernel computes it,
# otherwise every op goes through ``core.execute``.  Results, counters
# and rng state are identical either way (tests/test_properties_extended).
_FNV_OPS = frozenset({Op.XOR, Op.MUL})
_CRC_OPS = frozenset({Op.XOR, Op.SHR, Op.SHL})
_MIX_OPS = frozenset({Op.XOR, Op.SHR, Op.MUL})
#: ops per mix64: 3 x (SHR + XOR) + 2 MUL
_MIX_N_OPS = 8
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def fnv1a(core: CoreLike, data: bytes) -> int:
    """FNV-1a 64-bit: xor then multiply, both on the core."""
    if credit_untargeted(core, _FNV_OPS, 2 * len(data)):
        return digest_bytes(data)
    h = FNV_OFFSET
    for byte in data:
        h = core.execute(Op.XOR, h, byte)
        h = core.execute(Op.MUL, h, FNV_PRIME)
    return h


def _crc64_table() -> tuple[int, ...]:
    """Host-side CRC-64 table (the ROM; not subject to core defects)."""
    table = []
    for i in range(256):
        crc = i << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ _CRC64_POLY) & 0xFFFFFFFFFFFFFFFF
            else:
                crc = (crc << 1) & 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    return tuple(table)


CRC64_TABLE = _crc64_table()


def golden_crc64(data: bytes) -> int:
    """Defect-free CRC-64 at host speed: what a healthy core computes.

    Also the trusted framing/DMA checksum engine of ``repro.storage``.
    """
    table = CRC64_TABLE
    crc = 0
    for byte in data:
        crc = ((crc << 8) & MASK64) ^ table[((crc >> 56) ^ byte) & 0xFF]
    return crc


def crc64_credit(core: CoreLike, data: bytes) -> bool:
    """Charge :func:`crc64`'s ``4 * len(data)`` ops in one step, if no
    defect of ``core`` can act on them: on True the CRC is
    :func:`golden_crc64`'s, and a caller may compute it later or not at
    all.  On False nothing is charged and the ops must run per op; an
    offline core raises here, where the first of them would."""
    return credit_untargeted(core, _CRC_OPS, 4 * len(data))


def crc64(core: CoreLike, data: bytes) -> int:
    """Table-driven CRC-64; the per-byte combine runs on the core."""
    if crc64_credit(core, data):
        return golden_crc64(data)
    crc = 0
    for byte in data:
        index = core.execute(Op.XOR, core.execute(Op.SHR, crc, 56), byte)
        crc = core.execute(
            Op.XOR, core.execute(Op.SHL, crc, 8), CRC64_TABLE[index & 0xFF]
        )
    return crc


def _golden_mix64(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX_MUL_1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX_MUL_2) & MASK64
    return x ^ (x >> 31)


def mix64(core: CoreLike, x: int) -> int:
    """A splitmix-style finalizer: shifts, xors and multiplies."""
    if credit_untargeted(core, _MIX_OPS, _MIX_N_OPS):
        return _golden_mix64(x)
    x = core.execute(Op.XOR, x, core.execute(Op.SHR, x, 30))
    x = core.execute(Op.MUL, x, _MIX_MUL_1)
    x = core.execute(Op.XOR, x, core.execute(Op.SHR, x, 27))
    x = core.execute(Op.MUL, x, _MIX_MUL_2)
    x = core.execute(Op.XOR, x, core.execute(Op.SHR, x, 31))
    return x


def hashing_workload(core: CoreLike, data: bytes) -> WorkloadResult:
    """One unit of hash work with an internal cross-check.

    Computes FNV-1a twice and compares — a cheap application-level
    self-check of the kind §6 describes ("many of our applications
    already checked for SDCs").  A *deterministic* defect passes this
    check (both runs corrupt identically); an intermittent one is
    caught with useful probability.
    """
    first = fnv1a(core, data)
    second = fnv1a(core, data)
    crc = crc64(core, data)
    return WorkloadResult(
        name="hashing",
        output_digest=digest_ints([first, crc]),
        app_detected=first != second,
        units=len(data),
    )
