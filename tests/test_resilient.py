"""ABFT matrix algorithms and resilient sorting."""

import numpy as np
import pytest

from repro.mitigation.resilient.matfact import (
    AbftError,
    GF_PRIME,
    _gf_inv,
    _gf_mul,
    abft_matmul,
    checksummed_lu,
    matmul,
)
from repro.mitigation.resilient.sorting import (
    SortVerificationError,
    multiset_checksums,
    redundant_order_check,
    resilient_sort,
    verify_sorted,
)
from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit


def _matrices(rng, n=5, bits=30):
    a = [[int(x) for x in row] for row in rng.integers(0, 2**bits, (n, n))]
    b = [[int(x) for x in row] for row in rng.integers(0, 2**bits, (n, n))]
    return a, b


def _mul_bad(seed=0, rate=5e-3):
    return Core(
        "rs/bad",
        defects=[StuckBitDefect("d", bit=9, base_rate=rate,
                                unit=FunctionalUnit.MUL_DIV)],
        rng=np.random.default_rng(seed),
    )


class TestGfField:
    def test_gf_mul_matches_bigint(self, healthy_core, rng):
        for _ in range(100):
            a = int(rng.integers(0, GF_PRIME))
            b = int(rng.integers(0, GF_PRIME))
            assert _gf_mul(healthy_core, a, b) == (a * b) % GF_PRIME

    def test_gf_inv_is_inverse(self, healthy_core, rng):
        for _ in range(10):
            a = int(rng.integers(1, GF_PRIME))
            inv = _gf_inv(healthy_core, a)
            assert _gf_mul(healthy_core, a, inv) == 1

    def test_inverse_of_zero_rejected(self, healthy_core):
        with pytest.raises(ZeroDivisionError):
            _gf_inv(healthy_core, 0)


class TestAbftMatmul:
    def test_healthy_equals_plain(self, healthy_core, rng):
        a, b = _matrices(rng)
        product, corrections = abft_matmul(healthy_core, a, b)
        assert corrections == 0
        assert product == matmul(healthy_core, a, b)

    def test_single_error_corrected(self, healthy_core, rng):
        a, b = _matrices(rng)
        expected = matmul(healthy_core, a, b)
        bad = _mul_bad(rate=2e-3)
        outcomes = {"clean": 0, "corrected": 0, "flagged": 0}
        for _ in range(10):
            try:
                product, corrections = abft_matmul(
                    bad, a, b, checker_core=healthy_core
                )
            except AbftError:
                outcomes["flagged"] += 1
                continue
            assert product == expected  # never silently wrong
            outcomes["corrected" if corrections else "clean"] += 1
        assert outcomes["corrected"] + outcomes["flagged"] > 0

    def test_never_silently_wrong(self, healthy_core, rng):
        """The ABFT guarantee that matters: flagged or right."""
        a, b = _matrices(rng, n=4)
        expected = matmul(healthy_core, a, b)
        bad = _mul_bad(seed=3, rate=8e-3)
        for _ in range(15):
            try:
                product, _ = abft_matmul(bad, a, b, checker_core=healthy_core)
            except AbftError:
                continue
            assert product == expected

    def test_dimension_validation(self, healthy_core):
        with pytest.raises(ValueError):
            matmul(healthy_core, [[1, 2]], [[1, 2]])


class TestChecksummedLu:
    def _dd_matrix(self, rng, n=5):
        m = [[int(x) for x in row] for row in rng.integers(1, 2**40, (n, n))]
        for i in range(n):
            m[i][i] += 2**50  # diagonal dominance avoids zero pivots
        return m

    def test_healthy_lu_reconstructs(self, healthy_core, rng):
        m = self._dd_matrix(rng)
        lower, upper, checks = checksummed_lu(healthy_core, m)
        assert checks > 0
        n = len(m)
        reconstructed = [
            [sum(lower[i][t] * upper[t][j] for t in range(n)) % GF_PRIME
             for j in range(n)]
            for i in range(n)
        ]
        assert reconstructed == [[v % GF_PRIME for v in row] for row in m]

    def test_lower_is_unit_triangular(self, healthy_core, rng):
        m = self._dd_matrix(rng)
        lower, upper, _ = checksummed_lu(healthy_core, m)
        n = len(m)
        assert all(lower[i][i] == 1 for i in range(n))
        assert all(lower[i][j] == 0 for i in range(n) for j in range(i + 1, n))
        assert all(upper[i][j] == 0 for i in range(n) for j in range(i))

    def test_corruption_detected_at_exact_step(self, rng):
        bad = _mul_bad(seed=1, rate=2e-3)
        detections = 0
        for _ in range(8):
            m = self._dd_matrix(rng)
            try:
                checksummed_lu(bad, m)
            except AbftError as error:
                detections += 1
                assert "elimination step" in str(error)
        assert detections > 0

    def test_non_square_rejected(self, healthy_core):
        with pytest.raises(ValueError):
            checksummed_lu(healthy_core, [[1, 2, 3], [4, 5, 6]])


class TestResilientSort:
    def test_healthy_sorts(self, healthy_pool, rng):
        values = [int(x) for x in rng.integers(0, 2**48, 200)]
        assert resilient_sort(healthy_pool, values) == sorted(values)

    def test_escapes_defective_comparator(self, healthy_pool, rng):
        bad = Core(
            "rs/cmp", defects=named_case("comparator_flip"),
            rng=np.random.default_rng(2),
        )
        values = [int(x) for x in rng.integers(0, 2**48, 300)]
        result = resilient_sort([bad] + healthy_pool[:2], values)
        assert result == sorted(values)

    def test_all_defective_raises(self, rng):
        pool = [
            Core(f"rs/b{i}", defects=named_case("comparator_flip"),
                 rng=np.random.default_rng(i))
            for i in range(2)
        ]
        values = [int(x) for x in rng.integers(0, 2**48, 300)]
        with pytest.raises(SortVerificationError):
            resilient_sort(pool, values)

    def test_verify_rejects_dropped_element(self, healthy_core, rng):
        values = [int(x) for x in rng.integers(0, 2**48, 50)]
        bad_output = sorted(values)[:-1] + [0]
        assert not verify_sorted(healthy_core, values, sorted(bad_output))

    def test_verify_rejects_misorder(self, healthy_core):
        assert not verify_sorted(healthy_core, [3, 1, 2], [3, 1, 2])

    def test_redundant_order_check_healthy(self, healthy_core):
        assert redundant_order_check(healthy_core, [1, 2, 2, 3])
        assert not redundant_order_check(healthy_core, [2, 1])

    def test_multiset_checksums_permutation_invariant(self, healthy_core):
        a = multiset_checksums(healthy_core, [1, 2, 3])
        b = multiset_checksums(healthy_core, [3, 1, 2])
        assert a == b
