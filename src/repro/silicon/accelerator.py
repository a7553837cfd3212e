"""A matrix-multiply accelerator with PE-level defects (§9).

"Much computation is now done not just on traditional CPUs, but on
accelerator silicon such as GPUs, ML accelerators, P4 switches, NICs,
etc.  Often these accelerators push the limits of scale, complexity,
and power, so one might expect to see CEEs in these devices as well.
There might be novel challenges in detecting and mitigating CEEs in
non-CPU settings."

This module explores one such novelty.  The accelerator is a weight-
stationary systolic array of ``size × size`` processing elements (PEs);
an output tile element C[i][j] accumulates through the PE column that
owns output column j as partial sums flow down.  A single defective PE
therefore corrupts a *structured slice* of every result tile — not a
random scatter — which changes the detection story:

- per-element checks see a suspicious column/row concentration;
- ABFT column checksums catch it with one extra row (cheaper than on a
  CPU because the checksum row rides the same systolic pass);
- the CPU-style per-op screening corpus is useless: the accelerator
  only speaks matmul, so screening must be *tile-level* (golden tiles).

Defects model fabrication reality: a PE miscomputes its multiply
(stuck bit in one partial product) at some rate, always at the same
array coordinates.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1

Matrix = list[list[int]]


@dataclasses.dataclass(frozen=True)
class PeDefect:
    """A defective processing element at fixed array coordinates.

    Attributes:
        row, col: the PE's position in the array.
        bit: which bit of the partial product it flips.
        rate: probability a given multiply through this PE corrupts.
    """

    row: int
    col: int
    bit: int = 13
    rate: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be a probability")
        if not 0 <= self.bit < 64:
            raise ValueError("bit must be in [0, 64)")


class MatrixAccelerator:
    """A ``size × size`` weight-stationary systolic matmul unit.

    Matrices are processed in ``size × size`` tiles (zero-padded).  The
    mapping of work to PEs is the physically meaningful part: the
    partial product ``A[i][k] * B[k][j]`` for an output tile executes
    on PE ``(k % size, j % size)`` — so a defective PE touches every
    output column ``j ≡ col (mod size)`` and every reduction step
    ``k ≡ row (mod size)``.
    """

    def __init__(
        self,
        accel_id: str,
        size: int = 8,
        defects: Sequence[PeDefect] = (),
        rng: np.random.Generator | None = None,
    ):
        if size < 1:
            raise ValueError("array size must be positive")
        for defect in defects:
            if not (0 <= defect.row < size and 0 <= defect.col < size):
                raise ValueError(f"defect {defect} outside the {size}x{size} array")
        self.accel_id = accel_id
        self.size = size
        self.defects = tuple(defects)
        # documented fallback; campaigns pass a trial-derived rng
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.tiles_executed = 0
        self.corruptions_induced = 0

    @property
    def is_mercurial(self) -> bool:
        return bool(self.defects)

    def _partial_product(self, a: int, b: int, k: int, j: int) -> int:
        product = (a * b) & MASK64
        for defect in self.defects:
            if (k % self.size == defect.row and j % self.size == defect.col
                    and self.rng.random() < defect.rate):
                product ^= 1 << defect.bit
                self.corruptions_induced += 1
        return product

    def matmul(self, a: Matrix, b: Matrix) -> Matrix:
        """Multiply (mod 2**64) through the systolic array."""
        n, inner = len(a), len(a[0])
        if len(b) != inner:
            raise ValueError("inner dimensions disagree")
        m = len(b[0])
        self.tiles_executed += max(1, (n * m + self.size ** 2 - 1)
                                   // self.size ** 2)
        out = [[0] * m for _ in range(n)]
        for i in range(n):
            row = a[i]
            for j in range(m):
                acc = 0
                for k in range(inner):
                    acc = (acc + self._partial_product(row[k], b[k][j], k, j)) \
                        & MASK64
                out[i][j] = acc
        return out

    def golden_matmul(self, a: Matrix, b: Matrix) -> Matrix:
        """Defect-free reference (the experimenter's oracle)."""
        n, inner, m = len(a), len(a[0]), len(b[0])
        out = [[0] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                acc = 0
                for k in range(inner):
                    acc = (acc + a[i][k] * b[k][j]) & MASK64
                out[i][j] = acc
        return out


# ---------------------------------------------------------------------
# Detection for a device that only speaks matmul
# ---------------------------------------------------------------------

def column_error_signature(
    observed: Matrix, expected: Matrix, array_size: int
) -> dict[int, int]:
    """Histogram of errors by (column mod array size).

    A PE defect concentrates errors on one residue class — the
    accelerator analog of §2's "bit-flips at a particular bit position
    (which stuck out as unlikely to be coding bugs)".
    """
    histogram: dict[int, int] = {}
    for row_obs, row_exp in zip(observed, expected):
        for j, (x, y) in enumerate(zip(row_obs, row_exp)):
            if x != y:
                key = j % array_size
                histogram[key] = histogram.get(key, 0) + 1
    return histogram


def abft_tile_check(
    accelerator: MatrixAccelerator, a: Matrix, b: Matrix
) -> tuple[Matrix, bool]:
    """Checksum-augmented accelerator multiply.

    Appends a column-checksum row to ``a``; after the pass, the last
    output row must equal the column sums of the rest.  The checksum
    row flows through the *same PEs* as the data, so a defective PE is
    caught unless it corrupts data and checksum identically (probability
    ~rate², which the caller handles by retrying).

    Returns ``(product_without_checksum_row, consistent)``.
    """
    checksum_row = [0] * len(a[0])
    for row in a:
        for k, value in enumerate(row):
            checksum_row[k] = (checksum_row[k] + value) & MASK64
    augmented = [list(row) for row in a] + [checksum_row]
    product = accelerator.matmul(augmented, b)
    body, check = product[:-1], product[-1]
    consistent = True
    for j in range(len(check)):
        column_sum = 0
        for row in body:
            column_sum = (column_sum + row[j]) & MASK64
        if column_sum != check[j]:
            consistent = False
            break
    return body, consistent


def screen_accelerator(
    accelerator: MatrixAccelerator,
    n_tiles: int = 8,
    seed: int = 0,
) -> bool:
    """Tile-level golden screening: random tiles vs host recompute.

    Returns True if the accelerator passed (no corruption observed).
    The CPU screening corpus cannot run here — this is the §9 "novel
    challenges in detecting CEEs in non-CPU settings" answer: the test
    content must exercise every PE, which random dense tiles do.
    """
    rng = np.random.default_rng(seed)
    size = accelerator.size
    for _ in range(n_tiles):
        a = [[int(x) for x in row]
             for row in rng.integers(0, 2**32, (size, size))]
        b = [[int(x) for x in row]
             for row in rng.integers(0, 2**32, (size, size))]
        if accelerator.matmul(a, b) != accelerator.golden_matmul(a, b):
            return False
    return True
