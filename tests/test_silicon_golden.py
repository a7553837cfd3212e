"""Golden operation semantics."""

import pytest

from repro.silicon.golden import (
    AES_INV_SBOX,
    AES_SBOX,
    MASK64,
    _gf256_mul,
    golden_execute,
)
from repro.silicon.units import ALL_OPS, Op


class TestScalarArithmetic:
    def test_add_wraps_at_64_bits(self):
        assert golden_execute(Op.ADD, MASK64, 1) == 0

    def test_sub_wraps_below_zero(self):
        assert golden_execute(Op.SUB, 0, 1) == MASK64

    def test_mul_masks_to_64_bits(self):
        assert golden_execute(Op.MUL, 2**63, 2) == 0

    def test_mulh_returns_high_half(self):
        assert golden_execute(Op.MULH, 2**63, 4) == 2

    def test_div_is_unsigned_floor(self):
        assert golden_execute(Op.DIV, 7, 2) == 3

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            golden_execute(Op.DIV, 1, 0)

    def test_mod_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            golden_execute(Op.MOD, 1, 0)

    def test_neg_is_twos_complement(self):
        assert golden_execute(Op.NEG, 1) == MASK64

    def test_not_is_bitwise_complement(self):
        assert golden_execute(Op.NOT, 0) == MASK64

    def test_popcnt(self):
        assert golden_execute(Op.POPCNT, 0b10110) == 3


class TestShifts:
    def test_shl_modulo_word_size(self):
        assert golden_execute(Op.SHL, 1, 64) == 1  # shift count mod 64

    def test_shr_logical(self):
        assert golden_execute(Op.SHR, 2**63, 63) == 1

    def test_rotl_wraps_bits(self):
        assert golden_execute(Op.ROTL, 2**63, 1) == 1

    def test_rotl_zero_is_identity(self):
        assert golden_execute(Op.ROTL, 12345, 0) == 12345


class TestCompareAndBranch:
    def test_cmp_three_way(self):
        assert golden_execute(Op.CMP, 5, 5) == 0
        assert golden_execute(Op.CMP, 4, 5) == 1
        assert golden_execute(Op.CMP, 6, 5) == 2

    def test_beq(self):
        assert golden_execute(Op.BEQ, 3, 3) == 1
        assert golden_execute(Op.BEQ, 3, 4) == 0

    def test_blt_unsigned(self):
        # -1 as u64 is the max value, so it is NOT < 1.
        assert golden_execute(Op.BLT, MASK64, 1) == 0
        assert golden_execute(Op.BLT, 1, 2) == 1


class TestVectorOps:
    def test_vadd_lane_wise(self):
        assert golden_execute(Op.VADD, (1, 2), (10, 20)) == (11, 22)

    def test_vector_lane_mismatch_raises(self):
        with pytest.raises(ValueError):
            golden_execute(Op.VADD, (1, 2), (1,))

    def test_vdot(self):
        assert golden_execute(Op.VDOT, (1, 2, 3), (4, 5, 6)) == 32

    def test_vsum(self):
        assert golden_execute(Op.VSUM, (1, 2, 3, 4)) == 10

    def test_vperm_permutes(self):
        assert golden_execute(Op.VPERM, (10, 20, 30), (2, 0, 1)) == (30, 10, 20)

    def test_copy_is_identity(self):
        data = (1, 2, 3, MASK64)
        assert golden_execute(Op.COPY, data) == data


class TestAtomics:
    def test_cas_success(self):
        assert golden_execute(Op.CAS, 0, 0, 7) == 7

    def test_cas_failure_keeps_current(self):
        assert golden_execute(Op.CAS, 5, 0, 7) == 5

    def test_fetch_add(self):
        assert golden_execute(Op.FETCH_ADD, 10, 5) == 15

    def test_xchg_returns_new(self):
        assert golden_execute(Op.XCHG, 1, 2) == 2


class TestAesPrimitives:
    def test_sbox_known_values(self):
        # FIPS-197 appendix: S(0x00)=0x63, S(0x53)=0xED.
        assert AES_SBOX[0x00] == 0x63
        assert AES_SBOX[0x53] == 0xED

    def test_sbox_is_a_permutation(self):
        assert sorted(AES_SBOX) == list(range(256))

    def test_inv_sbox_inverts_sbox(self):
        for value in range(256):
            assert AES_INV_SBOX[AES_SBOX[value]] == value

    def test_tables_match_the_brute_force_derivation(self):
        """The oracle: each inverse found by trying every product, then
        FIPS-197's affine map as rotations; the inverse box by search."""

        def rotl8(b, n):
            return ((b << n) | (b >> (8 - n))) & 0xFF

        inverse = [0] * 256
        for x in range(1, 256):
            inverse[x] = next(
                y for y in range(1, 256) if _gf256_mul(x, y) == 1
            )
        sbox = tuple(
            b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
            for b in inverse
        )
        assert AES_SBOX == sbox
        assert AES_INV_SBOX == tuple(sbox.index(y) for y in range(256))

    def test_gfmul_identity(self):
        for value in range(256):
            assert _gf256_mul(value, 1) == value

    def test_gfmul_known_product(self):
        # FIPS-197 example: {57} x {83} = {c1}.
        assert _gf256_mul(0x57, 0x83) == 0xC1

    def test_sbox_op_masks_input(self):
        assert golden_execute(Op.SBOX, 0x100) == AES_SBOX[0]


class TestDispatch:
    def test_unknown_op_raises_key_error(self):
        with pytest.raises(KeyError):
            golden_execute("frobnicate", 1)

    def test_every_declared_op_has_golden_semantics(self):
        from repro.silicon.golden import GOLDEN

        assert set(ALL_OPS) == set(GOLDEN)
