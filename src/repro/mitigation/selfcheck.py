"""Self-checking library wrappers.

§7: "To allow a broader group of application developers to leverage
our shared expertise in addressing CEEs, we have developed a few
libraries with self-checking implementations of critical functions,
such as encryption and compression, where one CEE could have a large
blast radius."

:class:`CheckedCipher` is the encryption one.  Two strengths of check
are provided, because the paper's self-inverting AES defect (§2)
defeats the naive one:

- *same-core* round-trip checks (cheap; catch intermittent defects);
- *cross-core* verification (the decrypt runs on a different core;
  catches even deterministic self-inverting defects, at the cost of
  needing a second core — a small, targeted application of the
  end-to-end argument).
"""

from __future__ import annotations

import dataclasses

from repro.workloads.base import CoreLike
from repro.workloads.crypto import decrypt_ecb, encrypt_ecb


class SelfCheckError(RuntimeError):
    """A self-checking operation detected a wrong result."""


@dataclasses.dataclass
class SelfCheckStats:
    """Self-checking library tallies: verifications run, failures caught."""

    operations: int = 0
    verifications: int = 0
    failures_caught: int = 0

    @property
    def overhead_factor(self) -> float:
        if self.operations == 0:
            return 1.0
        return (self.operations + self.verifications) / self.operations


class CheckedCipher:
    """AES with encrypt-then-verify.

    Args:
        core: the core doing the encryption.
        verify_core: where the verification decrypt runs.  ``None``
            means same-core verification — cheaper, but blind to
            self-inverting defects; pass a different core to close
            that hole.
    """

    def __init__(self, core: CoreLike, verify_core: CoreLike | None = None):
        self.core = core
        self.verify_core = verify_core if verify_core is not None else core
        self.stats = SelfCheckStats()

    @property
    def cross_core(self) -> bool:
        return self.verify_core is not self.core

    def encrypt(self, data: bytes, key: bytes) -> bytes:
        """Encrypt and verify by decrypting on ``verify_core``.

        Raises:
            SelfCheckError: the verification decrypt did not restore
                the plaintext (corruption caught before it escaped).
        """
        self.stats.operations += 1
        ciphertext = encrypt_ecb(self.core, data, key)
        self.stats.verifications += 1
        try:
            restored = decrypt_ecb(self.verify_core, ciphertext, key)
        except ValueError as exc:  # bad padding = corrupt ciphertext
            self.stats.failures_caught += 1
            raise SelfCheckError(f"verification decrypt failed: {exc}") from exc
        if restored != data:
            self.stats.failures_caught += 1
            raise SelfCheckError("ciphertext does not decrypt to plaintext")
        return ciphertext

    def decrypt(self, ciphertext: bytes, key: bytes) -> bytes:
        """Decrypt and verify by re-encrypting on ``verify_core``."""
        self.stats.operations += 1
        plaintext = decrypt_ecb(self.core, ciphertext, key)
        self.stats.verifications += 1
        re_encrypted = encrypt_ecb(self.verify_core, plaintext, key)
        if re_encrypted != ciphertext:
            self.stats.failures_caught += 1
            raise SelfCheckError("plaintext does not re-encrypt to ciphertext")
        return plaintext
