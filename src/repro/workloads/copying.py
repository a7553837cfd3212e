"""Block-copy workloads.

"Data corruptions exhibited by various load, store, vector, and
coherence operations" (§2) — copies are the canonical victim, and §5's
shared-logic observation ties copy corruption to vector-unit defects.
The copier moves data in chunks through :data:`Op.COPY` and verifies
with an end-to-end checksum (computed host-side so the check itself is
trustworthy, mirroring a DMA engine's descriptor CRC).
"""

from __future__ import annotations

from repro.silicon.units import Op
from repro.workloads.base import (
    CoreLike,
    WorkloadResult,
    credit_untargeted,
    digest_ints,
)

_COPY_OPS = frozenset({Op.COPY})


def copy_words(
    core: CoreLike, words: list[int], chunk: int = 64
) -> list[int]:
    """Copy a word buffer through the core's copy datapath."""
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    out: list[int] = []
    for start in range(0, len(words), chunk):
        piece = tuple(words[start:start + chunk])
        out.extend(core.execute(Op.COPY, piece))
    return out


def copy_bytes(core: CoreLike, data: bytes, chunk: int = 64) -> bytes:
    """Copy a byte buffer (packed 8 bytes per word) through the core."""
    # One COPY per chunk of 8-byte words; where no defect targets the
    # copy datapath the words come back as sent, so neither is built.
    if chunk > 0 and credit_untargeted(
        core, _COPY_OPS, -(-len(data) // (8 * chunk))
    ):
        return bytes(data)
    words = []
    for start in range(0, len(data), 8):
        word = int.from_bytes(data[start:start + 8], "little")
        words.append(word)
    copied = copy_words(core, words, chunk)
    out = bytearray()
    for word in copied:
        out.extend(word.to_bytes(8, "little"))
    return bytes(out[: len(data)])


def copying_workload(core: CoreLike, words: list[int]) -> WorkloadResult:
    """Copy a buffer and self-check with a host-side checksum."""
    copied = copy_words(core, words)
    corrupted = copied != [w & 0xFFFFFFFFFFFFFFFF for w in words]
    return WorkloadResult(
        name="copying",
        output_digest=digest_ints(copied),
        app_detected=corrupted,
        units=len(words),
    )
