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
import operator
from typing import Sequence

from repro.silicon.golden import AES_INV_SBOX, AES_SBOX, GOLDEN
from repro.silicon.units import Op
from repro.workloads.base import (
    CoreLike,
    WorkloadResult,
    credit_quiet,
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
# (``credit_untargeted``); when it accepts, ``_golden_cipher`` runs the
# block on one 128-bit word.  ``_block_tables`` folds SubBytes, ShiftRows
# and MixColumns into a table per state position (built on first use
# from the S-boxes and ``_gf_table`` the per-op path reads), so a middle
# round is sixteen lookups XORed with the round key; the last round has
# no MixColumns and is ``bytes.translate`` plus one permutation.
# Decryption is the same loop over the inverse tables (FIPS-197 §5.3.5,
# the equivalent inverse cipher), whose nine middle round keys need
# InvMixColumns applied: ``_golden_key_words`` derives them from the
# round keys it is handed, never from the AES key.
#
# A core whose defect targets some of the ops falls back to one question
# per stage, asked in program order: each stage (the XORs of AddRoundKey
# and the key schedule, a SubBytes, a MixColumns) declares its own op
# set and count, so the stages a defect cannot reach run from the golden
# tables (``_golden_mix`` is MixColumns for that path alone), and a
# machine check that leaves a block mid-stream finds every earlier stage
# already credited.  A SubBytes stage also hands over its bytes
# (``credit_quiet``): an S-box-swap core reads a swapped entry in a few
# of its 160 lookups per block, and only a stage holding such a byte
# runs per op.  A lookup that reads a swap stays per-op even before
# onset, so defect behaviour and rng streams are untouched.  Exact op
# counts and results are pinned to the per-op path by
# tests/test_workloads_crypto.py and the differential test in
# tests/test_properties_extended.py.

_EXPAND_OPS = frozenset({Op.XOR, Op.SBOX})
_ENCRYPT_OPS = frozenset({Op.XOR, Op.SBOX, Op.GFMUL})
_DECRYPT_OPS = frozenset({Op.XOR, Op.INV_SBOX, Op.GFMUL})
_XOR_OPS = frozenset({Op.XOR})
#: GFMUL and XOR alternate one for one, so MixColumns is free only whole
_MIX_OPS = frozenset({Op.GFMUL, Op.XOR})
#: ops per expand_key: 40 words x 4 XOR + 10 RotWord steps x (4 SBOX + 1 XOR)
_EXPAND_N_OPS = 210
#: ops per block: AddRoundKey 16, SubBytes 16, MixColumns 128 per round
#: -> 16 + 9 * (16 + 128 + 16) + (16 + 16)
_BLOCK_N_OPS = 1488


@functools.cache
def _gf_table(coefficient: int) -> list[int]:
    gfmul = GOLDEN[Op.GFMUL]
    return [gfmul(coefficient, b) for b in range(256)]


@functools.cache
def _mix_rows(matrix: tuple) -> tuple:
    return tuple(tuple(_gf_table(c) for c in row) for row in matrix)


def _golden_mix(state: list[int], rows: tuple) -> list[int]:
    out = [0] * 16
    for c in range(4):
        base = 4 * c
        b0, b1, b2, b3 = state[base:base + 4]
        for r, (t0, t1, t2, t3) in enumerate(rows):
            out[base + r] = t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
    return out


@functools.cache
def _block_tables(inverse: bool) -> tuple[tuple, bytes, operator.itemgetter]:
    """(position tables, S-box, ShiftRows) of one cipher direction:
    ``tables[i][b]`` is what byte ``b`` at state position ``i`` adds to
    the big-endian 128-bit state after substitute -> shift -> mix."""
    sbox, shift, matrix = (
        (AES_INV_SBOX, _INV_SHIFT_ROWS, _INV_MIX) if inverse
        else (AES_SBOX, _SHIFT_ROWS, _MIX)
    )
    rows = _mix_rows(matrix)
    tables = []
    for position in range(16):
        column, row_in = divmod(shift.index(position), 4)
        low_bit = 8 * (15 - 4 * column)
        tables.append([
            sum(rows[r][row_in][s] << (low_bit - 8 * r) for r in range(4))
            for s in sbox
        ])
    return tuple(tables), bytes(sbox), operator.itemgetter(*shift)


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


# Keyed on the schedule the caller holds: it may be one a defective
# core's expand_key corrupted, which the AES key says nothing about.
@functools.lru_cache(maxsize=64)
def _golden_key_words(
    round_keys: tuple[bytes, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Round keys as 128-bit words, for (the cipher, its inverse)."""
    words = tuple(int.from_bytes(k, "big") for k in round_keys)
    tables, _, _ = _block_tables(True)
    _, sbox, shift = _block_tables(False)
    # The inverse tables apply InvSubBytes and InvShiftRows before
    # InvMixColumns: SubBytes o ShiftRows first, to mix the key itself.
    mixed = [
        functools.reduce(operator.xor, map(
            operator.getitem, tables, bytes(shift(k)).translate(sbox)
        ))
        for k in round_keys[N_ROUNDS - 1:0:-1]
    ]
    return words, (words[N_ROUNDS], *mixed, words[0])


def _golden_cipher(block: bytes, keys: tuple[int, ...], inverse: bool) -> bytes:
    (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15), \
        sbox, shift = _block_tables(inverse)
    s = (int.from_bytes(block, "big") ^ keys[0]).to_bytes(16, "big")
    for key in keys[1:N_ROUNDS]:
        s = (
            t0[s[0]] ^ t1[s[1]] ^ t2[s[2]] ^ t3[s[3]]
            ^ t4[s[4]] ^ t5[s[5]] ^ t6[s[6]] ^ t7[s[7]]
            ^ t8[s[8]] ^ t9[s[9]] ^ t10[s[10]] ^ t11[s[11]]
            ^ t12[s[12]] ^ t13[s[13]] ^ t14[s[14]] ^ t15[s[15]] ^ key
        ).to_bytes(16, "big")
    last = int.from_bytes(bytes(shift(s.translate(sbox))), "big")
    return (last ^ keys[N_ROUNDS]).to_bytes(16, "big")


def _golden_encrypt_block(block: bytes, round_keys: Sequence[bytes]) -> bytes:
    return _golden_cipher(block, _golden_key_words(tuple(round_keys))[0], False)


def _golden_decrypt_block(block: bytes, round_keys: Sequence[bytes]) -> bytes:
    return _golden_cipher(block, _golden_key_words(tuple(round_keys))[1], True)


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
    if credit_quiet(core, Op.SBOX, state):
        return [AES_SBOX[b] for b in state]
    return [core.execute(Op.SBOX, b) & 0xFF for b in state]


def _inv_sub_bytes(core: CoreLike, state: list[int]) -> list[int]:
    if credit_quiet(core, Op.INV_SBOX, state):
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
    exploits exactly this blindness.  A round trip whose padding a
    defect broke is a crash, like the other workloads' exceptions.
    """
    ciphertext = encrypt_ecb(core, data, key)
    try:
        round_trip = decrypt_ecb(core, ciphertext, key)
    except ValueError as exc:
        return WorkloadResult(
            name="crypto",
            output_digest=digest_bytes(ciphertext),
            crashed=True,
            detail=f"{type(exc).__name__}: {exc}",
            units=len(ciphertext) // BLOCK_BYTES,
        )
    return WorkloadResult(
        name="crypto",
        output_digest=digest_bytes(ciphertext),
        app_detected=round_trip != data,
        units=len(ciphertext) // BLOCK_BYTES,
    )
