"""Vector kernels: the SIMD-shaped half of the §5 shared-logic story.

These kernels drive the vector unit lane-wise through ``VLEN``-wide
tuples.  A defect on the ``SHUFFLE_NETWORK`` logic block corrupts both
these kernels *and* block copies — the correlated failure the paper
root-caused to shared hardware logic.
"""

from __future__ import annotations

from repro.silicon.isa import VLEN
from repro.silicon.units import Op
from repro.workloads.base import CoreLike, WorkloadResult, digest_ints

MASK64 = (1 << 64) - 1


def _chunks(values: list[int], width: int = VLEN):
    for start in range(0, len(values), width):
        chunk = values[start:start + width]
        if len(chunk) < width:
            chunk = chunk + [0] * (width - len(chunk))
        yield tuple(chunk)


def dot(core: CoreLike, xs: list[int], ys: list[int]) -> int:
    """Dot product via lane-wise multiply + horizontal add."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    total = 0
    for cx, cy in zip(_chunks(xs), _chunks(ys)):
        total = core.execute(Op.ADD, total, core.execute(Op.VDOT, cx, cy))
    return total


def xor_fold(core: CoreLike, values: list[int]) -> int:
    """Reduce a buffer with lane-wise XOR then fold lanes together."""
    accumulator = (0,) * VLEN
    for chunk in _chunks(values):
        accumulator = core.execute(Op.VXOR, accumulator, chunk)
    folded = 0
    for lane in accumulator:
        folded = core.execute(Op.XOR, folded, lane)
    return folded


def vector_workload(core: CoreLike, values: list[int]) -> WorkloadResult:
    """Dot-product work with a scalar-recompute self-check.

    The self-check recomputes the dot product with *scalar* ops.  A
    vector-unit defect makes the two disagree (caught); a defect in
    shared arithmetic logic corrupts both paths identically (silent) —
    exactly the §5 subtlety about which unit a computation really uses.
    """
    ys = values[::-1]
    vector_result = dot(core, values, ys)
    scalar_result = 0
    for x, y in zip(values, ys):
        product = core.execute(Op.MUL, x, y)
        scalar_result = core.execute(Op.ADD, scalar_result, product)
    return WorkloadResult(
        name="vectorops",
        output_digest=digest_ints([vector_result & MASK64]),
        app_detected=vector_result != scalar_result,
        units=len(values),
    )
