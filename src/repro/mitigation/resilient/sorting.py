"""SDC-resilient sorting.

§9 asks: "can we extend the class of SDC-resilient algorithms beyond
sorting and matrix factorization [11, 27]?" — implying sorting already
has resilient formulations.  This is ours, hardened against the two
failure modes the plain sort (:mod:`repro.workloads.sorting`) exhibits:

1. A corrupted comparison misorders output → caught by a *redundant*
   order check: each adjacent pair is compared both ways
   (``a < b`` and ``b < a``); a consistent comparator yields at most
   one True, and any anomaly (both True, or an inversion) fails the
   pair.
2. A corrupted element value (e.g. a copy-path bit flip) preserves
   order but changes the multiset → caught by comparing permutation-
   invariant checksums (sum and xor folds) of input vs output, computed
   on an independent verifier core.

On verification failure, the sort retries on the next core of the pool.
"""

from __future__ import annotations

from typing import Sequence

from repro.silicon.core import Core
from repro.silicon.units import Op
from repro.workloads.base import CoreLike
from repro.workloads.sorting import merge_sort


class SortVerificationError(RuntimeError):
    """No core in the pool produced a verifiably correct sort."""


def redundant_order_check(core: CoreLike, values: Sequence[int]) -> bool:
    """Adjacent-pair order check with both-ways comparisons."""
    for a, b in zip(values, values[1:]):
        ab = core.execute(Op.BLT, a, b)
        ba = core.execute(Op.BLT, b, a)
        if ab == 1 and ba == 1:
            return False  # comparator is inconsistent: a<b and b<a
        if ba == 1:
            return False  # inversion: b < a
    return True


def multiset_checksums(core: CoreLike, values: Sequence[int]) -> tuple[int, int]:
    """Permutation-invariant (sum, xor) folds computed on ``core``."""
    total = 0
    folded = 0
    for value in values:
        total = core.execute(Op.ADD, total, value)
        folded = core.execute(Op.XOR, folded, value)
    return total, folded


def verify_sorted(
    verifier: CoreLike,
    original: Sequence[int],
    output: Sequence[int],
) -> bool:
    """Full resilient verification on an independent core."""
    if len(output) != len(original):
        return False
    if not redundant_order_check(verifier, output):
        return False
    return multiset_checksums(verifier, original) == multiset_checksums(
        verifier, output
    )


def resilient_sort(pool: Sequence[Core], values: Sequence[int]) -> list[int]:
    """Sort with verify-and-migrate.

    Each attempt sorts on one pool core and verifies on the *next*
    (distinct verifier, so a single mercurial core cannot both corrupt
    and approve); every core gets one attempt as the sorter.

    Raises:
        SortVerificationError: no attempt verified.
    """
    if not pool:
        raise ValueError("need at least one core")
    for attempt in range(len(pool)):
        worker = pool[attempt % len(pool)]
        verifier = pool[(attempt + 1) % len(pool)]
        output = merge_sort(worker, list(values))
        if verify_sorted(verifier, values, output):
            return output
    raise SortVerificationError(
        f"no verified sort with any of the {len(pool)} cores sorting"
    )
