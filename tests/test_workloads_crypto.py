"""AES-128 and the self-inverting defect."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.silicon.aging import AgingProfile
from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.silicon.defects import (
    MachineCheckDefect,
    SboxPermutationDefect,
    StuckBitDefect,
)
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.golden import AES_SBOX, golden_cache
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.crypto import (
    _golden_decrypt_block,
    _golden_encrypt_block,
    _golden_round_keys,
    crypto_workload,
    decrypt_block,
    decrypt_ecb,
    encrypt_block,
    encrypt_ecb,
    expand_key,
)

KEY = bytes(range(16))
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
#: (key, plaintext, ciphertext): FIPS-197 Appendix B, then Appendix C.1
FIPS_VECTORS = [
    tuple(map(bytes.fromhex, (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32",
    ))),
    (FIPS_KEY, FIPS_PLAINTEXT, FIPS_CIPHERTEXT),
]


def _per_op(fn, *args):
    """``fn(core, *args)`` on the per-op reference path -> (result, ops);
    for tests under ``kernels_on``."""
    core = Core("fast/ref")
    # Disabling the golden cache forces the per-op reference path.
    with golden_cache(False):
        result = fn(core, *args)
    return result, core.ops_executed


class TestFips197:
    def test_encrypt_matches_standard_vector(self, healthy_core):
        round_keys = expand_key(healthy_core, FIPS_KEY)
        assert encrypt_block(healthy_core, FIPS_PLAINTEXT, round_keys) == \
            FIPS_CIPHERTEXT

    def test_decrypt_inverts(self, healthy_core):
        round_keys = expand_key(healthy_core, FIPS_KEY)
        assert decrypt_block(healthy_core, FIPS_CIPHERTEXT, round_keys) == \
            FIPS_PLAINTEXT

    def test_key_schedule_first_and_last_words(self, healthy_core):
        round_keys = expand_key(healthy_core, FIPS_KEY)
        assert round_keys[0] == FIPS_KEY
        # FIPS-197 A.1: last round key for this key schedule.
        assert round_keys[10].hex() == "13111d7fe3944a17f307a78b4d2b30c5"

    def test_wrong_block_size_rejected(self, healthy_core):
        with pytest.raises(ValueError):
            encrypt_block(healthy_core, b"short", [])

    def test_wrong_key_size_rejected(self, healthy_core):
        with pytest.raises(ValueError):
            expand_key(healthy_core, b"short")


class TestEcbMode:
    def test_roundtrip_arbitrary_length(self, healthy_core):
        for size in (0, 1, 15, 16, 17, 100):
            data = bytes(range(size % 256))[:size] or b""
            data = (b"x" * size)
            ct = encrypt_ecb(healthy_core, data, KEY)
            assert decrypt_ecb(healthy_core, ct, KEY) == data

    def test_padding_always_added(self, healthy_core):
        ct = encrypt_ecb(healthy_core, b"0123456789abcdef", KEY)
        assert len(ct) == 32  # full extra block of padding

    def test_tampered_ciphertext_detected_by_padding(self, healthy_core):
        ct = bytearray(encrypt_ecb(healthy_core, b"hello", KEY))
        ct[-1] ^= 0xFF
        with pytest.raises(ValueError):
            decrypt_ecb(healthy_core, bytes(ct), KEY)


class TestSelfInvertingDefect:
    @pytest.fixture
    def defective(self):
        return Core(
            "aes/bad", defects=named_case("self_inverting_aes"),
            rng=np.random.default_rng(0),
        )

    def test_ciphertext_is_wrong(self, defective, healthy_core):
        message = b"attack at dawn!!" * 4
        assert encrypt_ecb(defective, message, KEY) != \
            encrypt_ecb(healthy_core, message, KEY)

    def test_same_core_roundtrip_is_identity(self, defective):
        message = b"attack at dawn!!" * 4
        ct = encrypt_ecb(defective, message, KEY)
        assert decrypt_ecb(defective, ct, KEY) == message

    def test_decryption_elsewhere_is_gibberish(self, defective, healthy_core):
        message = b"attack at dawn!!" * 4
        ct = encrypt_ecb(defective, message, KEY)
        try:
            elsewhere = decrypt_ecb(healthy_core, ct, KEY)
        except ValueError:
            return  # destroyed padding: definitely gibberish
        assert elsewhere != message

    def test_roundtrip_self_check_is_blind(self, defective):
        """The §2 trap: the natural self-check passes on the bad core."""
        result = crypto_workload(defective, b"secret payload", KEY)
        assert not result.app_detected
        assert not result.crashed


class TestCryptoWorkload:
    def test_healthy_clean(self, healthy_core):
        result = crypto_workload(healthy_core, b"data" * 16, KEY)
        assert not result.app_detected
        assert result.units == 5  # 64 bytes + padding = 5 blocks


@pytest.mark.usefixtures("kernels_on")
class TestHealthyFastPath:
    """The block kernels must be invisible: same bytes, same counters.

    A core none of whose defects targets an AES op returns golden
    results for all of them, so encrypt/decrypt/expand_key can shortcut
    the per-op Core.execute trip — but only if results AND the
    ops_executed accounting stay bit-for-bit identical to the per-op
    path.
    """

    def test_expand_key_matches_per_op_path(self):
        want, want_ops = _per_op(expand_key, FIPS_KEY)
        core = Core("fast/a")
        assert expand_key(core, FIPS_KEY) == want
        assert core.ops_executed == want_ops

    def test_encrypt_matches_per_op_path(self):
        core = Core("fast/b")
        round_keys = expand_key(core, FIPS_KEY)
        want, want_ops = _per_op(encrypt_block, FIPS_PLAINTEXT, round_keys)
        before = core.ops_executed
        assert encrypt_block(core, FIPS_PLAINTEXT, round_keys) == want == \
            FIPS_CIPHERTEXT
        assert core.ops_executed - before == want_ops

    def test_decrypt_matches_per_op_path(self):
        core = Core("fast/c")
        round_keys = expand_key(core, FIPS_KEY)
        want, want_ops = _per_op(decrypt_block, FIPS_CIPHERTEXT, round_keys)
        before = core.ops_executed
        assert decrypt_block(core, FIPS_CIPHERTEXT, round_keys) == want == \
            FIPS_PLAINTEXT
        assert core.ops_executed - before == want_ops

    def test_sbox_defect_core_stays_per_op_for_aes(self, execute_calls):
        """Per op for the S-box stages whose bytes read a swapped entry
        and for nothing else: the FIPS vectors miss the swaps and run
        from the tables; a block whose first SubBytes reads entry 0x3A
        pays per op for that stage, and its decryption for the mirror."""
        defective = Core(
            "fast/bad", defects=named_case("self_inverting_aes"),
            rng=np.random.default_rng(1),
        )
        round_keys = expand_key(defective, FIPS_KEY)
        assert defective.ops_executed == 210
        encrypt_block(defective, FIPS_PLAINTEXT, round_keys)
        decrypt_block(defective, FIPS_CIPHERTEXT, round_keys)
        assert execute_calls == []
        assert defective.ops_executed == 210 + 2 * 1488
        hits_0x3a = bytes([0x3A ^ FIPS_KEY[0]]) + FIPS_PLAINTEXT[1:]
        ciphertext = encrypt_block(defective, hits_0x3a, round_keys)
        assert execute_calls == [Op.SBOX] * 16
        assert ciphertext != encrypt_block(Core("fast/a"), hits_0x3a, round_keys)
        assert decrypt_block(defective, ciphertext, round_keys) == hits_0x3a
        assert execute_calls == [Op.SBOX] * 16 + [Op.INV_SBOX] * 16
        assert defective.ops_executed == 210 + 4 * 1488

    def test_lock_violator_core_takes_the_aes_and_crc_kernels(
        self, execute_calls
    ):
        from repro.workloads.hashing import crc64

        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        other_unit = Core(
            "fast/locks", defects=named_case("lock_violator"), rng=rng,
        )
        round_keys = expand_key(other_unit, FIPS_KEY)
        assert encrypt_block(other_unit, FIPS_PLAINTEXT, round_keys) == \
            FIPS_CIPHERTEXT
        assert decrypt_block(other_unit, FIPS_CIPHERTEXT, round_keys) == \
            FIPS_PLAINTEXT
        assert crc64(other_unit, FIPS_PLAINTEXT) == \
            crc64(Core("fast/ref"), FIPS_PLAINTEXT)
        assert execute_calls == []
        assert other_unit.ops_executed == 210 + 2 * 1488 + 4 * 16
        assert other_unit.corruptions_induced == 0
        assert rng.bit_generator.state == state

    def test_offline_core_still_raises(self):
        from repro.silicon.errors import CoreOfflineError

        core = Core("fast/off")
        round_keys = expand_key(core, FIPS_KEY)
        core.set_online(False)
        with pytest.raises(CoreOfflineError):
            encrypt_block(core, FIPS_PLAINTEXT, round_keys)


aes_block = st.binary(min_size=16, max_size=16)


@pytest.mark.usefixtures("kernels_on")
class TestBlockKernels:
    """``_golden_encrypt_block`` / ``_golden_decrypt_block`` as pure
    functions of (block, round keys) — whatever those round keys are."""

    @pytest.mark.parametrize("key, plaintext, ciphertext", FIPS_VECTORS)
    def test_fips197_vectors(self, key, plaintext, ciphertext):
        round_keys = _golden_round_keys(key)
        assert _golden_encrypt_block(plaintext, round_keys) == ciphertext
        assert _golden_decrypt_block(ciphertext, round_keys) == plaintext
        # and the per-op reference, pinned to the standard on its own
        assert _per_op(expand_key, key)[0] == round_keys
        assert _per_op(encrypt_block, plaintext, round_keys)[0] == ciphertext
        assert _per_op(decrypt_block, ciphertext, round_keys)[0] == plaintext

    @settings(max_examples=200, deadline=None)
    @given(
        block=aes_block,
        round_keys=st.lists(aes_block, min_size=11, max_size=11),
    )
    def test_match_the_per_op_path_on_arbitrary_round_keys(
        self, block, round_keys
    ):
        """Not only real schedules: any 11 x 16 bytes, list or tuple."""
        for primitive, kernel in (
            (encrypt_block, _golden_encrypt_block),
            (decrypt_block, _golden_decrypt_block),
        ):
            want, want_ops = _per_op(primitive, block, round_keys)
            for schedule in (round_keys, tuple(round_keys)):
                core = Core("fast/k")
                assert primitive(core, block, schedule) == want
                assert core.ops_executed == want_ops == 1488
                assert kernel(block, schedule) == want

    def test_decrypt_follows_the_schedule_it_is_given_not_the_key(self):
        """A schedule a defective core's ``expand_key`` corrupted shares
        its first round key (the AES key) with the true one; a healthy
        core handed it must decrypt as the per-op path does with it."""
        key = bytes(12) + bytes([0x3A, 0xC5, 0x11, 0x7E])  # swapped S-box inputs
        defective = Core(
            "fast/bad", defects=named_case("self_inverting_aes"),
            rng=np.random.default_rng(2),
        )
        true_keys = expand_key(Core("fast/a"), key)
        corrupted = expand_key(defective, key)
        assert corrupted != true_keys and corrupted[0] == true_keys[0] == key
        healthy = Core("fast/b")
        with_true = decrypt_block(healthy, FIPS_CIPHERTEXT, true_keys)
        with_corrupted = decrypt_block(healthy, FIPS_CIPHERTEXT, corrupted)
        assert with_true == _per_op(decrypt_block, FIPS_CIPHERTEXT, true_keys)[0]
        assert with_corrupted == \
            _per_op(decrypt_block, FIPS_CIPHERTEXT, corrupted)[0]
        assert with_corrupted != with_true


# -- S-box swap cores: stage credits vs. the per-op path -----------------

ONSET_DAYS = 400.0
byte = st.integers(min_value=0, max_value=255)
#: a second defect sharing the core's rng beside the swap: one outside
#: AES's ops, one on the S-box itself, a fail-noisy one on the crypto unit
SECOND_DEFECTS = {
    "none": lambda: [],
    "stuck_load_store": lambda: [StuckBitDefect(
        "swap:ls", bit=3, base_rate=0.05, unit=FunctionalUnit.LOAD_STORE)],
    "stuck_sbox": lambda: [StuckBitDefect(
        "swap:sbox", bit=3, base_rate=0.05, ops={Op.SBOX})],
    "mce_crypto": lambda: [MachineCheckDefect(
        "swap:mce", base_rate=0.002, unit=FunctionalUnit.CRYPTO)],
}


@st.composite
def swap_cases(draw):
    """(swaps, key, block) with the key's first SubWord and each
    direction's first S-box stage biased to read swapped entries."""
    touched = draw(st.lists(byte, min_size=2, max_size=8, unique=True))
    touched = touched[:len(touched) // 2 * 2]
    swaps = tuple(zip(touched[::2], touched[1::2]))
    hit = st.sampled_from(touched)
    key = bytes(draw(st.lists(byte, min_size=12, max_size=12))) + bytes(
        draw(st.lists(st.one_of(byte, hit), min_size=4, max_size=4))
    )
    last_key = _golden_round_keys(key)[10]
    block = bytes(
        draw(st.one_of(
            byte,
            hit.map(lambda s, i=i: key[i] ^ s),  # encryption's round 1
            hit.map(lambda s, i=i: last_key[i] ^ AES_SBOX[s]),  # decryption's
        ))
        for i in range(16)
    )
    return swaps, key, block


def _swap_core(swaps, second, sbox_first, age_days, online, seed):
    defects = [SboxPermutationDefect("swap:aes", swaps=swaps),
               *SECOND_DEFECTS[second]()]
    if not sbox_first:
        defects.reverse()
    for defect in defects:
        defect.aging = AgingProfile(onset_days=ONSET_DAYS)
    core = Core(
        "swap/core", defects=defects, rng=np.random.default_rng(seed),
        age_days=age_days,
    )
    core.set_online(online)
    return core


def _observe(core, work):
    try:
        result = work(core)
    except (MachineCheckError, CoreOfflineError) as error:
        result = (type(error).__name__, str(error))
    return (
        result, core.ops_executed, core.corruptions_induced,
        core.machine_checks_raised, core.rng.bit_generator.state,
    )


@pytest.mark.usefixtures("kernels_on")
class TestSwapCoresMatchThePerOpPath:
    """A core with S-box swaps, alone or beside a second rng-sharing
    defect, before and after onset, online or not: the switch on gives
    the results, counters and rng state of the switch off."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=swap_cases(), second=st.sampled_from(sorted(SECOND_DEFECTS)),
        sbox_first=st.booleans(), seed=st.integers(0, 2**32),
    )
    def test_expand_encrypt_decrypt(self, case, second, sbox_first, seed):
        swaps, key, block = case
        round_keys = _golden_round_keys(key)
        works = (
            lambda core: expand_key(core, key),
            lambda core: encrypt_block(core, block, round_keys),
            lambda core: decrypt_block(core, block, round_keys),
        )
        for age_days in (0.0, 2 * ONSET_DAYS):
            for online in (True, False):
                def observe(work):
                    return _observe(_swap_core(
                        swaps, second, sbox_first, age_days, online, seed,
                    ), work)

                for work in works:
                    fast = observe(work)
                    with golden_cache(False):
                        reference = observe(work)
                    assert fast == reference, (age_days, online)
