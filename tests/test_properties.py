"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.silicon.core import Core
from repro.silicon.golden import MASK64, golden_execute
from repro.silicon.units import Op
from repro.workloads.base import digest_ints
from repro.workloads.compression import compress, decompress
from repro.workloads.copying import copy_bytes
from repro.workloads.crypto import decrypt_ecb, encrypt_ecb
from repro.workloads.database import BTreeIndex
from repro.workloads.hashing import crc64, fnv1a
from repro.workloads.sorting import merge_sort

u64 = st.integers(min_value=0, max_value=MASK64)
small_bytes = st.binary(min_size=0, max_size=300)


def _core(seed=0):
    return Core("prop/h", rng=np.random.default_rng(seed))


class TestGoldenAlgebra:
    @given(a=u64, b=u64)
    def test_add_commutes(self, a, b):
        assert golden_execute(Op.ADD, a, b) == golden_execute(Op.ADD, b, a)

    @given(a=u64, b=u64)
    def test_xor_self_inverse(self, a, b):
        assert golden_execute(Op.XOR, golden_execute(Op.XOR, a, b), b) == a

    @given(a=u64)
    def test_not_is_involution(self, a):
        assert golden_execute(Op.NOT, golden_execute(Op.NOT, a)) == a

    @given(a=u64, b=st.integers(min_value=0, max_value=63))
    def test_rotl_reversible(self, a, b):
        rotated = golden_execute(Op.ROTL, a, b)
        assert golden_execute(Op.ROTL, rotated, (64 - b) % 64) == a

    @given(a=u64, b=st.integers(min_value=1, max_value=MASK64))
    def test_div_mod_identity(self, a, b):
        quotient = golden_execute(Op.DIV, a, b)
        remainder = golden_execute(Op.MOD, a, b)
        assert quotient * b + remainder == a

    @given(a=u64, b=u64)
    def test_cmp_antisymmetric(self, a, b):
        forward = golden_execute(Op.CMP, a, b)
        backward = golden_execute(Op.CMP, b, a)
        assert (forward, backward) in ((0, 0), (1, 2), (2, 1))

    @given(v=st.lists(u64, min_size=1, max_size=16))
    def test_copy_identity(self, v):
        assert golden_execute(Op.COPY, tuple(v)) == tuple(v)

    @given(a=st.integers(min_value=0, max_value=255),
           b=st.integers(min_value=0, max_value=255))
    def test_gfmul_commutes(self, a, b):
        assert golden_execute(Op.GFMUL, a, b) == golden_execute(Op.GFMUL, b, a)


class TestWorkloadRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(data=small_bytes)
    def test_compression_roundtrip(self, data):
        core = _core()
        assert decompress(core, compress(core, data)) == data

    @settings(max_examples=20, deadline=None)
    @given(data=st.binary(min_size=0, max_size=64),
           key=st.binary(min_size=16, max_size=16))
    def test_aes_roundtrip(self, data, key):
        core = _core()
        assert decrypt_ecb(core, encrypt_ecb(core, data, key), key) == data

    @settings(max_examples=30, deadline=None)
    @given(data=small_bytes)
    def test_copy_bytes_identity(self, data):
        assert copy_bytes(_core(), data) == data

    @settings(max_examples=30, deadline=None)
    @given(data=small_bytes)
    def test_hashes_deterministic(self, data):
        core_a, core_b = _core(1), _core(2)
        assert fnv1a(core_a, data) == fnv1a(core_b, data)
        assert crc64(core_a, data) == crc64(core_b, data)


class TestSortingProperties:
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(u64, max_size=120))
    def test_merge_sort_matches_sorted(self, values):
        assert merge_sort(_core(), values) == sorted(values)


class TestBTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=2**40),
                         unique=True, max_size=150))
    def test_insert_then_get_everything(self, keys):
        index = BTreeIndex(_core())
        for position, key in enumerate(keys):
            index.insert(key, position)
        for position, key in enumerate(keys):
            assert index.get(key) == position

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=2**40),
                         unique=True, max_size=150))
    def test_inorder_traversal_sorted(self, keys):
        index = BTreeIndex(_core())
        for key in keys:
            index.insert(key, 0)
        assert [k for k, _ in index.items()] == sorted(keys)
        assert index.check_order_invariant()


class TestDigestProperties:
    @given(values=st.lists(u64, max_size=30))
    def test_digest_deterministic(self, values):
        assert digest_ints(values) == digest_ints(list(values))

    @given(values=st.lists(u64, min_size=1, max_size=30), index=st.integers(0))
    def test_digest_sensitive_to_any_change(self, values, index):
        position = index % len(values)
        tampered = list(values)
        tampered[position] ^= 1
        assert digest_ints(values) != digest_ints(tampered)

    @given(
        values=st.lists(
            st.integers(min_value=-(2**70), max_value=2**70), max_size=30),
        start=u64,
    )
    def test_digest_is_fnv1a_over_each_values_low_eight_bytes(self, values, start):
        """The reference loop: shift and mask byte by byte, which takes
        negatives (two's complement) and values past 2**64 alike."""
        h = start
        for value in values:
            for shift in range(0, 64, 8):
                h ^= (value >> shift) & 0xFF
                h = (h * 0x100000001B3) & MASK64
        assert digest_ints(values, start) == h


class TestAbftProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n=st.integers(min_value=1, max_value=5),
    )
    def test_abft_matmul_matches_plain_on_healthy(self, seed, n):
        from repro.mitigation.resilient.matfact import abft_matmul, matmul

        rng = np.random.default_rng(seed)
        a = [[int(x) for x in row] for row in rng.integers(0, 2**30, (n, n))]
        b = [[int(x) for x in row] for row in rng.integers(0, 2**30, (n, n))]
        core = _core()
        product, corrections = abft_matmul(core, a, b)
        assert corrections == 0
        assert product == matmul(core, a, b)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_gf_mul_matches_bigint(self, seed):
        from repro.mitigation.resilient.matfact import GF_PRIME, _gf_mul

        rng = np.random.default_rng(seed)
        a = int(rng.integers(0, GF_PRIME))
        b = int(rng.integers(0, GF_PRIME))
        assert _gf_mul(_core(), a, b) == (a * b) % GF_PRIME


class TestComplaintStatistics:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=60),
           k=st.integers(min_value=0, max_value=60))
    def test_binomial_tail_in_unit_interval(self, n, k):
        from repro.core.report import _binomial_tail

        tail = _binomial_tail(n, k, 0.01)
        assert 0.0 <= tail <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=50))
    def test_binomial_tail_monotone_in_k(self, n):
        from repro.core.report import _binomial_tail

        tails = [_binomial_tail(n, k, 0.1) for k in range(n + 1)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
