"""Golden (defect-free) semantics of every primitive operation.

These are the answers a healthy core produces.  Scalar operations are
64-bit unsigned with wraparound; vector operations apply the scalar
semantics lane-wise over equal-length tuples; crypto operations are the
real AES field primitives (the S-box is derived from first principles:
multiplicative inverse in GF(2^8) followed by the AES affine transform).

A defective core computes the golden result first and then lets its
defects perturb it — mirroring the paper's observation that CEEs "could
only be detected by checking the results of these instructions against
the expected results".
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Iterator, Sequence, Tuple

from repro.silicon.units import Op

MASK64 = (1 << 64) - 1
WORD_BITS = 64


def _gf256_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    product = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return product & 0xFF


def _build_sbox() -> Tuple[int, ...]:
    """Derive the AES S-box: inverse in GF(2^8) then affine transform."""
    # Inverses from exp/log tables over the generator 3: x = 3^i has
    # the inverse 3^(255 - i).
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
    inverse = [0] + [exp[(255 - log[x]) % 255] for x in range(1, 256)]
    box = []
    for x in range(256):
        b = inverse[x]
        s = 0
        for bit in range(8):
            v = (
                (b >> bit)
                ^ (b >> ((bit + 4) % 8))
                ^ (b >> ((bit + 5) % 8))
                ^ (b >> ((bit + 6) % 8))
                ^ (b >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            s |= v << bit
        box.append(s)
    return tuple(box)


AES_SBOX: Tuple[int, ...] = _build_sbox()
#: the S-box inverted directly: entry y is the x that AES_SBOX maps to y
AES_INV_SBOX: Tuple[int, ...] = tuple(
    sorted(range(256), key=AES_SBOX.__getitem__)
)


def _shl(a: int, b: int) -> int:
    return (a << (b % WORD_BITS)) & MASK64


def _shr(a: int, b: int) -> int:
    return (a & MASK64) >> (b % WORD_BITS)


def _rotl(a: int, b: int) -> int:
    b %= WORD_BITS
    a &= MASK64
    if b == 0:
        return a
    return ((a << b) | (a >> (WORD_BITS - b))) & MASK64


def _cmp(a: int, b: int) -> int:
    """Three-way unsigned compare: 0 equal, 1 less-than, 2 greater-than."""
    a &= MASK64
    b &= MASK64
    if a == b:
        return 0
    return 1 if a < b else 2


def _div(a: int, b: int) -> int:
    b &= MASK64
    if b == 0:
        raise ZeroDivisionError("division by zero on simulated core")
    return (a & MASK64) // b


def _mod(a: int, b: int) -> int:
    b &= MASK64
    if b == 0:
        raise ZeroDivisionError("modulo by zero on simulated core")
    return (a & MASK64) % b


def _vec(fn: Callable[..., int]) -> Callable[..., Tuple[int, ...]]:
    def apply(*vectors: Sequence[int]) -> Tuple[int, ...]:
        lengths = {len(v) for v in vectors}
        if len(lengths) != 1:
            raise ValueError(f"vector lane mismatch: {sorted(lengths)}")
        return tuple(fn(*lanes) for lanes in zip(*vectors))

    return apply


def _vperm(vector: Sequence[int], indices: Sequence[int]) -> Tuple[int, ...]:
    return tuple(vector[i % len(vector)] for i in indices)


def _copy(data: Sequence[int]) -> Tuple[int, ...]:
    return tuple(x & MASK64 for x in data)


def _cas(current: int, expected: int, new: int) -> int:
    current &= MASK64
    return new & MASK64 if current == (expected & MASK64) else current


GOLDEN: dict[str, Callable] = {
    Op.ADD: lambda a, b: (a + b) & MASK64,
    Op.SUB: lambda a, b: (a - b) & MASK64,
    Op.AND: lambda a, b: a & b & MASK64,
    Op.OR: lambda a, b: (a | b) & MASK64,
    Op.XOR: lambda a, b: (a ^ b) & MASK64,
    Op.NOT: lambda a: ~a & MASK64,
    Op.NEG: lambda a: -a & MASK64,
    Op.SHL: _shl,
    Op.SHR: _shr,
    Op.ROTL: _rotl,
    Op.CMP: _cmp,
    Op.POPCNT: lambda a: bin(a & MASK64).count("1"),
    Op.MUL: lambda a, b: (a * b) & MASK64,
    Op.MULH: lambda a, b: ((a & MASK64) * (b & MASK64)) >> 64,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.VADD: _vec(lambda a, b: (a + b) & MASK64),
    Op.VSUB: _vec(lambda a, b: (a - b) & MASK64),
    Op.VMUL: _vec(lambda a, b: (a * b) & MASK64),
    Op.VXOR: _vec(lambda a, b: (a ^ b) & MASK64),
    Op.VAND: _vec(lambda a, b: a & b & MASK64),
    Op.VOR: _vec(lambda a, b: (a | b) & MASK64),
    Op.VSHL: _vec(_shl),
    Op.VSHR: _vec(_shr),
    Op.VDOT: lambda a, b: sum((x * y) & MASK64 for x, y in zip(a, b)) & MASK64,
    Op.VSUM: lambda a: sum(x & MASK64 for x in a) & MASK64,
    Op.VPERM: _vperm,
    Op.LOAD: lambda a: a & MASK64,
    Op.STORE: lambda a: a & MASK64,
    Op.COPY: _copy,
    Op.SBOX: lambda a: AES_SBOX[a & 0xFF],
    Op.INV_SBOX: lambda a: AES_INV_SBOX[a & 0xFF],
    Op.GFMUL: _gf256_mul,
    Op.CAS: _cas,
    Op.FETCH_ADD: lambda cur, delta: (cur + delta) & MASK64,
    Op.XCHG: lambda cur, new: new & MASK64,
    Op.BEQ: lambda a, b: 1 if (a & MASK64) == (b & MASK64) else 0,
    Op.BLT: lambda a, b: 1 if (a & MASK64) < (b & MASK64) else 0,
}


def golden_execute(op: str, *operands):
    """Compute the defect-free result of ``op`` over ``operands``."""
    try:
        fn = GOLDEN[op]
    except KeyError:
        raise KeyError(f"unknown operation {op!r}") from None
    return fn(*operands)


# -- memoized execution path ------------------------------------------
#
# ``golden_call`` runs for *every* primitive operation that reaches
# :meth:`Core.execute` — on a defective core it runs before the defects
# perturb the result, so campaign-scale experiments (E15/E16) execute
# it millions of times.  Memoization is *selective*: only operations
# whose golden function does real Python-level work (GF(2^8) bit loops,
# per-lane vector loops, string-allocating POPCNT) sit behind a per-op
# LRU.  Single-expression scalar ops (ADD/XOR/SHL/...) are dispatched
# straight to their golden function: hashing an operand tuple costs
# more than computing them, and high-entropy operand streams (e.g. a
# CRC's running remainder) would only thrash the LRU — the measured
# root cause of the old whole-table cache losing to the uncached
# baseline on the E15 serving campaign.  Operations are pure, so a hit
# is always exact; trapping ops (DIV/MOD by zero) stay uncached and
# raise every time.

_CACHE_CAPACITY = 1 << 17

#: operations worth memoizing: Python-loop or allocating golden fns
#: over operand universes small enough to hit (8-bit field ops repeat
#: endlessly; vector/copy streams repeat per workload block).
MEMOIZED_OPS = frozenset({
    Op.GFMUL, Op.SBOX, Op.INV_SBOX, Op.POPCNT,
    Op.VADD, Op.VSUB, Op.VMUL, Op.VXOR, Op.VAND, Op.VOR,
    Op.VSHL, Op.VSHR, Op.VDOT, Op.VSUM, Op.VPERM, Op.COPY,
})

#: ``lru_cache`` wraps each golden function directly, so a hit is
#: answered in C without entering a Python frame.
_MEMO: dict[str, Callable] = {
    op: functools.lru_cache(maxsize=_CACHE_CAPACITY)(GOLDEN[op])
    for op in sorted(MEMOIZED_OPS)
}

#: the one dispatch table ``golden_call`` reads: ``GOLDEN`` with the
#: memoized ops swapped in while the cache is on, ``GOLDEN`` itself
#: while it is off.
_MEMOIZED_GOLDEN: dict[str, Callable] = {**GOLDEN, **_MEMO}

_dispatch: dict[str, Callable] = (
    _MEMOIZED_GOLDEN
    if os.environ.get("REPRO_GOLDEN_CACHE", "1") != "0" else GOLDEN
)


@contextlib.contextmanager
def golden_cache(enabled: bool) -> Iterator[None]:
    """Golden memoization on or off inside the ``with`` block, then back
    to whatever it was before.

    Off also forces every library primitive onto the per-op path (see
    :meth:`repro.silicon.core.Core.credit_untargeted`), and the fleet
    simulator's tick onto its every-tick form (mercurial bookkeeping
    recomputed each tick, channel counts drawn as arrays; see
    :meth:`repro.fleet.simulator.FleetSimulator._tick`): it is the
    reference the kernels and the lazy fleet tick are tested against.
    """
    global _dispatch
    was = _dispatch
    _dispatch = _MEMOIZED_GOLDEN if enabled else GOLDEN
    try:
        yield
    finally:
        _dispatch = was


def golden_cache_enabled() -> bool:
    """Whether golden-result memoization is currently on."""
    return _dispatch is _MEMOIZED_GOLDEN


def golden_cache_info():
    """Aggregate hit/miss statistics across the per-op LRUs."""
    infos = [memo.cache_info() for memo in _MEMO.values()]
    return functools.reduce(
        lambda a, b: a._replace(
            hits=a.hits + b.hits,
            misses=a.misses + b.misses,
            currsize=a.currsize + b.currsize,
        ),
        infos,
    )


def golden_cache_clear() -> None:
    """Drop every memoized golden result (bench hygiene)."""
    for memo in _MEMO.values():
        memo.cache_clear()


def golden_call(op: str, operands: tuple):
    """Selectively memoized :func:`golden_execute` over an operand tuple.

    One table lookup and one call: memoized ops (:data:`MEMOIZED_OPS`)
    hit their per-op LRU, everything else its golden function.  Falls
    back to the uncached function for unhashable operands (callers
    passing lists) and preserves ``golden_execute``'s KeyError message
    for unknown operations.
    """
    try:
        fn = _dispatch[op]
    except KeyError:
        raise KeyError(f"unknown operation {op!r}") from None
    try:
        return fn(*operands)
    except TypeError:
        plain = GOLDEN[op]
        if fn is plain:
            raise
        return plain(*operands)
