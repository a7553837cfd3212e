"""The self-checking cipher: same-core versus cross-core verification."""

import numpy as np
import pytest

from repro.mitigation.selfcheck import CheckedCipher, SelfCheckError
from repro.silicon.catalog import named_case
from repro.silicon.core import Core

KEY = bytes(range(16))


def _aes_bad(seed=0):
    return Core(
        "sc/aes", defects=named_case("self_inverting_aes"),
        rng=np.random.default_rng(seed),
    )


class TestCheckedCipher:
    def test_healthy_encrypt_verifies(self, healthy_core):
        cipher = CheckedCipher(healthy_core)
        ct = cipher.encrypt(b"data", KEY)
        assert cipher.decrypt(ct, KEY) == b"data"
        assert cipher.stats.failures_caught == 0

    def test_same_core_check_blind_to_self_inverting(self):
        cipher = CheckedCipher(_aes_bad())
        # passes verification despite producing a wrong ciphertext
        ct = cipher.encrypt(b"sensitive payload", KEY)
        assert ct  # no SelfCheckError raised: the blindness is real

    def test_cross_core_check_catches_self_inverting(self, healthy_core):
        cipher = CheckedCipher(_aes_bad(), verify_core=healthy_core)
        with pytest.raises(SelfCheckError):
            cipher.encrypt(b"sensitive payload", KEY)
        assert cipher.stats.failures_caught == 1

    def test_overhead_factor_is_two(self, healthy_core):
        cipher = CheckedCipher(healthy_core)
        cipher.encrypt(b"x", KEY)
        assert cipher.stats.overhead_factor == 2.0

    def test_cross_core_flag(self, healthy_core, reference_core):
        assert CheckedCipher(healthy_core, reference_core).cross_core
        assert not CheckedCipher(healthy_core).cross_core
