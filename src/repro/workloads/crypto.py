"""AES-128 implemented from scratch, one S-box lookup at a time.

The paper's most striking anecdote (§2) is "a deterministic AES
mis-computation, which was 'self-inverting': encrypting and decrypting
on the same core yielded the identity function, but decryption
elsewhere yielded gibberish."  Reproducing that requires a *real* AES
whose table lookups and field multiplications run through the core's
crypto unit — this module is that implementation (FIPS-197, verified
against the standard test vectors in the test suite).

Layout: the 16-byte state is column-major (state[r + 4c]), matching
FIPS-197.  ShiftRows is wiring (a fixed byte permutation) and stays
host-side; SubBytes, MixColumns and AddRoundKey execute on the core.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.silicon.golden import AES_INV_SBOX, AES_SBOX, GOLDEN
from repro.silicon.units import Op
from repro.workloads.base import (
    CoreLike,
    WorkloadResult,
    credit_untargeted,
    digest_bytes,
)

N_ROUNDS = 10
BLOCK_BYTES = 16

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

_SHIFT_ROWS = tuple(
    (r + 4 * ((c + r) % 4)) for c in range(4) for r in range(4)
)
_INV_SHIFT_ROWS = tuple(_SHIFT_ROWS.index(i) for i in range(16))


# -- golden kernels ------------------------------------------------------
#
# An AES block is a sequential stream over XOR, SBOX/INV_SBOX and GFMUL.
# On a core none of whose defects targets those ops (a healthy core, or
# a mercurial one whose defect sits in another unit) every op returns
# the golden result and never draws from the rng, so the block is a pure
# function of (block, round_keys) and the per-op trip through
# Core.execute only maintains the ops_executed counter.  The primitives
# below declare their op set and exact op count to the core
# (``credit_untargeted``); when it accepts, the kernels here compute the
# whole block from the same golden tables.  A core whose defect targets
# some of the ops falls back to one question per stage, asked in program
# order: each stage (the XORs of AddRoundKey and the key schedule, a
# SubBytes, a MixColumns) declares its own op set and count, so an
# S-box-swap core pays per op for its 160 lookups per block and runs the
# other 1 328 ops from the golden tables, and a machine check that
# leaves a block mid-stream finds every earlier stage already credited.
# A targeted op stays per-op even before onset, so defect behaviour and
# rng streams are untouched.  Exact op counts and results are pinned to
# the per-op path by tests/test_workloads_crypto.py and the differential
# test in tests/test_properties_extended.py.

_EXPAND_OPS = frozenset({Op.XOR, Op.SBOX})
_ENCRYPT_OPS = frozenset({Op.XOR, Op.SBOX, Op.GFMUL})
_DECRYPT_OPS = frozenset({Op.XOR, Op.INV_SBOX, Op.GFMUL})
_XOR_OPS = frozenset({Op.XOR})
_SBOX_OPS = frozenset({Op.SBOX})
_INV_SBOX_OPS = frozenset({Op.INV_SBOX})
#: GFMUL and XOR alternate one for one, so MixColumns is free only whole
_MIX_OPS = frozenset({Op.GFMUL, Op.XOR})
#: ops per expand_key: 40 words x 4 XOR + 10 RotWord steps x (4 SBOX + 1 XOR)
_EXPAND_N_OPS = 210
#: ops per block: AddRoundKey 16, SubBytes 16, MixColumns 128 per round
#: -> 16 + 9 * (16 + 128 + 16) + (16 + 16)
_BLOCK_N_OPS = 1488

_GF_TABLES: dict[int, list[int]] = {}
_MIX_ROWS: dict[tuple, tuple] = {}


def _gf_table(coefficient: int) -> list[int]:
    table = _GF_TABLES.get(coefficient)
    if table is None:
        gfmul = GOLDEN[Op.GFMUL]
        table = _GF_TABLES[coefficient] = [
            gfmul(coefficient, b) for b in range(256)
        ]
    return table


def _mix_rows(matrix: tuple) -> tuple:
    rows = _MIX_ROWS.get(matrix)
    if rows is None:
        rows = _MIX_ROWS[matrix] = tuple(
            tuple(_gf_table(c) for c in row) for row in matrix
        )
    return rows


def _golden_mix(state: list[int], rows: tuple) -> list[int]:
    out = [0] * 16
    for c in range(4):
        base = 4 * c
        b0, b1, b2, b3 = state[base:base + 4]
        for r, (t0, t1, t2, t3) in enumerate(rows):
            out[base + r] = t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
    return out


def _pack_round_keys(words: list[list[int]]) -> tuple[bytes, ...]:
    return tuple(
        bytes(sum((words[4 * r + c] for c in range(4)), []))
        for r in range(N_ROUNDS + 1)
    )


# Bounded and small: campaigns use a handful of keys (a store re-expands
# its one StoreConfig.key on every put/get).
@functools.lru_cache(maxsize=64)
def _golden_round_keys(key: bytes) -> tuple[bytes, ...]:
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 4 * (N_ROUNDS + 1)):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [AES_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return _pack_round_keys(words)


def _golden_encrypt_block(block: bytes, round_keys: Sequence[bytes]) -> bytes:
    rows = _mix_rows(_MIX)
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for round_index in range(1, N_ROUNDS):
        state = [AES_SBOX[b] for b in state]
        state = [state[j] for j in _SHIFT_ROWS]
        state = _golden_mix(state, rows)
        state = [a ^ k for a, k in zip(state, round_keys[round_index])]
    state = [AES_SBOX[b] for b in state]
    state = [state[j] for j in _SHIFT_ROWS]
    return bytes(a ^ k for a, k in zip(state, round_keys[N_ROUNDS]))


def _golden_decrypt_block(block: bytes, round_keys: Sequence[bytes]) -> bytes:
    rows = _mix_rows(_INV_MIX)
    state = [b ^ k for b, k in zip(block, round_keys[N_ROUNDS])]
    for round_index in range(N_ROUNDS - 1, 0, -1):
        state = [state[j] for j in _INV_SHIFT_ROWS]
        state = [AES_INV_SBOX[b] for b in state]
        state = [a ^ k for a, k in zip(state, round_keys[round_index])]
        state = _golden_mix(state, rows)
    state = [state[j] for j in _INV_SHIFT_ROWS]
    state = [AES_INV_SBOX[b] for b in state]
    return bytes(a ^ k for a, k in zip(state, round_keys[0]))


def expand_key(core: CoreLike, key: bytes) -> tuple[bytes, ...]:
    """FIPS-197 key schedule: 11 round keys from a 16-byte key."""
    if len(key) != 16:
        raise ValueError("AES-128 needs a 16-byte key")
    if credit_untargeted(core, _EXPAND_OPS, _EXPAND_N_OPS):
        return _golden_round_keys(bytes(key))
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 4 * (N_ROUNDS + 1)):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord (wiring)
            temp = _sub_bytes(core, temp)  # SubWord
            temp[:1] = _add_round_key(core, temp[:1], (_RCON[i // 4 - 1],))
        words.append(_add_round_key(core, words[i - 4], temp))
    return _pack_round_keys(words)


def _add_round_key(core: CoreLike, state: list[int], round_key: bytes) -> list[int]:
    # also the key schedule's byte-wise XORs (a word, the Rcon byte)
    if credit_untargeted(core, _XOR_OPS, len(state)):
        return [s ^ k for s, k in zip(state, round_key)]
    # The AES datapath is byte-wide: results are truncated to 8 bits
    # even when a defect flips a higher bit of the 64-bit ALU result.
    return [core.execute(Op.XOR, s, k) & 0xFF for s, k in zip(state, round_key)]


def _sub_bytes(core: CoreLike, state: list[int]) -> list[int]:
    if credit_untargeted(core, _SBOX_OPS, len(state)):
        return [AES_SBOX[b] for b in state]
    return [core.execute(Op.SBOX, b) & 0xFF for b in state]


def _inv_sub_bytes(core: CoreLike, state: list[int]) -> list[int]:
    if credit_untargeted(core, _INV_SBOX_OPS, len(state)):
        return [AES_INV_SBOX[b] for b in state]
    return [core.execute(Op.INV_SBOX, b) & 0xFF for b in state]


def _shift_rows(state: list[int]) -> list[int]:
    return [state[_SHIFT_ROWS[i]] for i in range(16)]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[_INV_SHIFT_ROWS[i]] for i in range(16)]


def _mix_single_column(core: CoreLike, col: list[int], matrix: tuple) -> list[int]:
    out = []
    for row in matrix:
        acc = 0
        for coefficient, byte in zip(row, col):
            term = core.execute(Op.GFMUL, coefficient, byte)
            acc = core.execute(Op.XOR, acc, term) & 0xFF
        out.append(acc)
    return out


_MIX = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
_INV_MIX = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11), (11, 13, 9, 14))


def _mix_columns(core: CoreLike, state: list[int], matrix: tuple) -> list[int]:
    if credit_untargeted(core, _MIX_OPS, 128):
        return _golden_mix(state, _mix_rows(matrix))
    out = [0] * 16
    for c in range(4):
        column = state[4 * c:4 * c + 4]
        out[4 * c:4 * c + 4] = _mix_single_column(core, column, matrix)
    return out


def encrypt_block(
    core: CoreLike, block: bytes, round_keys: Sequence[bytes]
) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != BLOCK_BYTES:
        raise ValueError("block must be 16 bytes")
    if credit_untargeted(core, _ENCRYPT_OPS, _BLOCK_N_OPS):
        return _golden_encrypt_block(block, round_keys)
    state = _add_round_key(core, list(block), round_keys[0])
    for round_index in range(1, N_ROUNDS):
        state = _sub_bytes(core, state)
        state = _shift_rows(state)
        state = _mix_columns(core, state, _MIX)
        state = _add_round_key(core, state, round_keys[round_index])
    state = _sub_bytes(core, state)
    state = _shift_rows(state)
    state = _add_round_key(core, state, round_keys[N_ROUNDS])
    return bytes(state)


def decrypt_block(
    core: CoreLike, block: bytes, round_keys: Sequence[bytes]
) -> bytes:
    """Decrypt one 16-byte block (inverse cipher, FIPS-197 §5.3)."""
    if len(block) != BLOCK_BYTES:
        raise ValueError("block must be 16 bytes")
    if credit_untargeted(core, _DECRYPT_OPS, _BLOCK_N_OPS):
        return _golden_decrypt_block(block, round_keys)
    state = _add_round_key(core, list(block), round_keys[N_ROUNDS])
    for round_index in range(N_ROUNDS - 1, 0, -1):
        state = _inv_shift_rows(state)
        state = _inv_sub_bytes(core, state)
        state = _add_round_key(core, state, round_keys[round_index])
        state = _mix_columns(core, state, _INV_MIX)
    state = _inv_shift_rows(state)
    state = _inv_sub_bytes(core, state)
    state = _add_round_key(core, state, round_keys[0])
    return bytes(state)


def _pad(data: bytes) -> bytes:
    """PKCS#7."""
    pad = BLOCK_BYTES - (len(data) % BLOCK_BYTES)
    return data + bytes([pad] * pad)


def _unpad(data: bytes) -> bytes:
    if not data or len(data) % BLOCK_BYTES:
        raise ValueError("bad padded length")
    pad = data[-1]
    if not 1 <= pad <= BLOCK_BYTES or data[-pad:] != bytes([pad] * pad):
        raise ValueError("bad padding")
    return data[:-pad]


def encrypt_ecb(core: CoreLike, data: bytes, key: bytes) -> bytes:
    """ECB over PKCS#7-padded data (mode kept simple on purpose —
    the experiments study the block function, not mode security)."""
    round_keys = expand_key(core, key)
    padded = _pad(data)
    out = bytearray()
    for start in range(0, len(padded), BLOCK_BYTES):
        out.extend(encrypt_block(core, padded[start:start + BLOCK_BYTES], round_keys))
    return bytes(out)


def decrypt_ecb(core: CoreLike, data: bytes, key: bytes) -> bytes:
    """Inverse of :func:`encrypt_ecb`; raises ValueError on bad padding."""
    round_keys = expand_key(core, key)
    out = bytearray()
    for start in range(0, len(data), BLOCK_BYTES):
        out.extend(decrypt_block(core, data[start:start + BLOCK_BYTES], round_keys))
    return _unpad(bytes(out))


def crypto_workload(core: CoreLike, data: bytes, key: bytes) -> WorkloadResult:
    """Encrypt-decrypt round trip with an identity self-check.

    This is precisely the check that *fails to detect* the self-
    inverting defect: the round trip on the defective core is the
    identity, so ``app_detected`` stays False even though the
    ciphertext is wrong for the rest of the world.  Experiment E3
    exploits exactly this blindness.
    """
    ciphertext = encrypt_ecb(core, data, key)
    round_trip = decrypt_ecb(core, ciphertext, key)
    return WorkloadResult(
        name="crypto",
        output_digest=digest_bytes(ciphertext),
        app_detected=round_trip != data,
        units=len(ciphertext) // BLOCK_BYTES,
    )
