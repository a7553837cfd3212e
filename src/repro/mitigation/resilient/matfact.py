"""Algorithm-based fault tolerance (ABFT) for matrix computations.

The paper cites "Silent Data Corruption Resilient Two-Sided Matrix
Factorizations" [27] as the existing art for SDC-resilient linear
algebra.  This module implements the ABFT core ideas on the simulated
silicon:

- :func:`abft_matmul` — checksum-augmented matrix multiply over the
  64-bit wraparound ring.  Row/column checksums are *linear*, and
  addition mod 2**64 is exact, so a single corrupted output element is
  detected, located (row × column checksum intersection) and corrected
  arithmetically — no re-execution needed.
- :func:`checksummed_lu` — LU factorization over
  the prime field GF(2**61 − 1) with an appended checksum column
  maintained through elimination.  The field gives exact division
  (modular inverse), so checksum validity is an invariant of every
  elimination step and a violation pinpoints the corrupted step.

All arithmetic routes through the core (MUL/MOD/ADD/SUB ops).
"""

from __future__ import annotations

from typing import Sequence

from repro.silicon.units import Op
from repro.workloads.base import CoreLike

MASK64 = (1 << 64) - 1
#: the Mersenne prime 2^61 - 1: fits 64-bit ops with room for products
GF_PRIME = (1 << 61) - 1

Matrix = list[list[int]]


class AbftError(RuntimeError):
    """Corruption detected that ABFT could not correct."""


def _add(core: CoreLike, a: int, b: int) -> int:
    return core.execute(Op.ADD, a, b)


def _mul(core: CoreLike, a: int, b: int) -> int:
    return core.execute(Op.MUL, a, b)


def matmul(core: CoreLike, a: Matrix, b: Matrix) -> Matrix:
    """Plain (unprotected) matrix multiply mod 2**64 on the core."""
    n, k = len(a), len(a[0])
    if len(b) != k:
        raise ValueError("inner dimensions disagree")
    m = len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = _add(core, acc, _mul(core, row[t], b[t][j]))
            out[i][j] = acc
    return out


def _column_checksum_row(core: CoreLike, matrix: Matrix) -> list[int]:
    cols = len(matrix[0])
    sums = [0] * cols
    for row in matrix:
        for j in range(cols):
            sums[j] = _add(core, sums[j], row[j])
    return sums


def _row_checksum_col(core: CoreLike, matrix: Matrix) -> list[int]:
    out = []
    for row in matrix:
        acc = 0
        for value in row:
            acc = _add(core, acc, value)
        out.append(acc)
    return out


def abft_matmul(
    core: CoreLike,
    a: Matrix,
    b: Matrix,
    checker_core: CoreLike | None = None,
) -> tuple[Matrix, int]:
    """Checksummed multiply: detect, locate, and correct one bad element.

    Computes the product of the checksum-augmented matrices, then
    verifies the augmented result's consistency on ``checker_core``
    (defaults to ``core``; pass an independent core so a mercurial
    worker cannot approve its own answer).

    Returns ``(product, corrections)`` where ``corrections`` counts
    corrected elements.

    Raises:
        AbftError: more corruption than the single-error code can fix
            (multiple bad rows/columns, or corrupt checksums).
    """
    checker = checker_core if checker_core is not None else core
    n, m = len(a), len(b[0])
    a_aug = [list(row) for row in a] + [_column_checksum_row(core, a)]
    b_aug = [list(row) + [checksum]
             for row, checksum in zip(b, _row_checksum_col(core, b))]
    c_aug = matmul(core, a_aug, b_aug)

    # Verify: for each row i of the real product, the appended column
    # must equal the row sum; for each column j, the appended row must
    # equal the column sum.  Recompute sums on the checker core.
    bad_rows = []
    for i in range(n):
        expected = 0
        for j in range(m):
            expected = _add(checker, expected, c_aug[i][j])
        if (expected & MASK64) != (c_aug[i][m] & MASK64):
            bad_rows.append(i)
    bad_cols = []
    for j in range(m):
        expected = 0
        for i in range(n):
            expected = _add(checker, expected, c_aug[i][j])
        if (expected & MASK64) != (c_aug[n][j] & MASK64):
            bad_cols.append(j)

    corrections = 0
    if bad_rows or bad_cols:
        if len(bad_rows) == 1 and len(bad_cols) == 1:
            i, j = bad_rows[0], bad_cols[0]
            # Correct from the row checksum: value = checksum - others.
            others = 0
            for jj in range(m):
                if jj != j:
                    others = _add(checker, others, c_aug[i][jj])
            c_aug[i][j] = (c_aug[i][m] - others) & MASK64
            corrections = 1
        else:
            raise AbftError(
                f"uncorrectable: bad rows {bad_rows}, bad cols {bad_cols}"
            )
    return [row[:m] for row in c_aug[:n]], corrections


# ---------------------------------------------------------------------
# LU factorization over GF(2^61 - 1) with a maintained checksum column
# ---------------------------------------------------------------------

def _gf_add(core: CoreLike, a: int, b: int) -> int:
    return core.execute(Op.MOD, core.execute(Op.ADD, a, b), GF_PRIME)


def _gf_sub(core: CoreLike, a: int, b: int) -> int:
    return core.execute(
        Op.MOD, core.execute(Op.ADD, a, GF_PRIME - (b % GF_PRIME)), GF_PRIME
    )


def _gf_shift31(core: CoreLike, x: int) -> int:
    """x · 2^31 mod p without overflowing the 64-bit datapath.

    Uses 2^61 ≡ 1 (mod p): split x = x_hi·2^30 + x_lo, so
    x·2^31 = x_hi·2^61 + x_lo·2^31 ≡ x_hi + x_lo·2^31, and both terms
    fit in 64 bits (x_lo < 2^30 ⇒ x_lo·2^31 < 2^61).
    """
    x_hi = core.execute(Op.SHR, x, 30)
    x_lo = core.execute(Op.AND, x, (1 << 30) - 1)
    shifted = core.execute(Op.SHL, x_lo, 31)
    return core.execute(Op.MOD, core.execute(Op.ADD, shifted, x_hi), GF_PRIME)


def _gf_mul(core: CoreLike, a: int, b: int) -> int:
    # The 122-bit product of two 61-bit operands exceeds the 64-bit
    # datapath, so do 31-bit-limb schoolbook: every partial product is
    # at most 62 bits and every reduction uses 2^61 ≡ 1 (mod p).
    a %= GF_PRIME
    b %= GF_PRIME
    low_mask = (1 << 31) - 1
    a_lo, a_hi = a & low_mask, a >> 31   # a_hi < 2^30
    b_lo, b_hi = b & low_mask, b >> 31
    p00 = core.execute(Op.MOD, core.execute(Op.MUL, a_lo, b_lo), GF_PRIME)
    p01 = core.execute(Op.MOD, core.execute(Op.MUL, a_lo, b_hi), GF_PRIME)
    p10 = core.execute(Op.MOD, core.execute(Op.MUL, a_hi, b_lo), GF_PRIME)
    p11 = core.execute(Op.MOD, core.execute(Op.MUL, a_hi, b_hi), GF_PRIME)
    mid = _gf_shift31(core, _gf_add(core, p01, p10))        # (p01+p10)·2^31
    high = _gf_shift31(core, _gf_shift31(core, p11))        # p11·2^62
    return _gf_add(core, _gf_add(core, p00, mid), high)


def _gf_inv(core: CoreLike, a: int) -> int:
    """Modular inverse by Fermat: a^(p-2) via square-and-multiply."""
    if a % GF_PRIME == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(p)")
    exponent = GF_PRIME - 2
    result = 1
    base = a % GF_PRIME
    while exponent:
        if exponent & 1:
            result = _gf_mul(core, result, base)
        base = _gf_mul(core, base, base)
        exponent >>= 1
    return result


def checksummed_lu(
    core: CoreLike, matrix: Sequence[Sequence[int]]
) -> tuple[Matrix, Matrix, int]:
    """LU factorization (Doolittle, no pivoting) with ABFT checksums.

    The working matrix carries an extra checksum column (row sums in
    GF(p)).  Elimination updates the checksum column with the same row
    operations, so after every elimination step each row's checksum
    must still equal its row sum; a mismatch means a CEE corrupted that
    step.

    Returns ``(L, U, checks_performed)``.

    Raises:
        AbftError: a checksum invariant was violated (corruption
            detected at the exact elimination step).
        ZeroDivisionError: a zero pivot (matrix needs pivoting; the
            callers use diagonally-dominant random matrices).
    """
    n = len(matrix)
    work = [[v % GF_PRIME for v in row] for row in matrix]
    for row in work:
        if len(row) != n:
            raise ValueError("need a square matrix")
    # Append checksum column.
    for row in work:
        acc = 0
        for value in row:
            acc = _gf_add(core, acc, value)
        row.append(acc)

    lower = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    checks = 0
    for k in range(n):
        pivot_inv = _gf_inv(core, work[k][k])
        for i in range(k + 1, n):
            factor = _gf_mul(core, work[i][k], pivot_inv)
            lower[i][k] = factor
            for j in range(k, n + 1):  # includes the checksum column
                delta = _gf_mul(core, factor, work[k][j])
                work[i][j] = _gf_sub(core, work[i][j], delta)
            # ABFT invariant: row sum still matches the checksum.
            acc = 0
            for j in range(n):
                acc = _gf_add(core, acc, work[i][j])
            checks += 1
            if acc != work[i][n]:
                raise AbftError(
                    f"checksum violated at elimination step k={k}, row {i}"
                )
    upper = [[work[i][j] if j >= i else 0 for j in range(n)] for i in range(n)]
    return lower, upper, checks
