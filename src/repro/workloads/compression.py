"""An LZ77-style codec computed through the core.

Compression libraries are first-class members of the paper's test
corpus (§2).  The interesting CEE behaviours they surface:

- a defective *comparator* makes the match finder emit wrong matches →
  the compressed stream decodes to silently different data;
- a defective *adder/AGU* corrupts offsets/lengths → decompression
  reads out of range and crashes (the fail-noisy symptom);
- the *copy* datapath moves match bytes, so a shared-logic defect (§5)
  corrupts decompression output even when the stream is perfect.

Format: a token stream.  ``0x00 <byte>`` is a literal; ``0x01 <offset>
<length>`` copies ``length+MIN_MATCH`` bytes from ``offset+1`` back.
Offsets fit one byte (window 255), lengths one byte.
"""

from __future__ import annotations

from repro.silicon.units import Op
from repro.workloads.base import (
    CoreLike,
    WorkloadResult,
    credit_untargeted,
    digest_bytes,
)

MIN_MATCH = 3
MAX_MATCH = MIN_MATCH + 255
WINDOW = 255
LITERAL = 0x00
MATCH = 0x01

_COMPRESS_OPS = frozenset({Op.BEQ, Op.ADD, Op.SUB})


class CorruptStreamError(ValueError):
    """Raised when a compressed stream is structurally invalid."""


def _bytes_equal(core: CoreLike, a: int, b: int) -> bool:
    return core.execute(Op.BEQ, a, b) == 1


def _find_match(
    core: CoreLike, data: bytes, position: int, window: int
) -> tuple[int, int]:
    """Greedy best (offset, length) for ``data[position:]``; (0,0) if none.

    The candidate scan steps back through the window; every byte
    comparison and every length increment runs on the core.
    """
    best_offset = 0
    best_length = 0
    start = max(0, position - window)
    limit = len(data)
    for candidate in range(position - 1, start - 1, -1):
        if not _bytes_equal(core, data[candidate], data[position]):
            continue
        length = 0
        scan_guard = 0
        while (
            position + length < limit
            and length < MAX_MATCH
            and _bytes_equal(core, data[candidate + length], data[position + length])
        ):
            length = core.execute(Op.ADD, length, 1)
            # A corrupted increment can make `length` oscillate and spin
            # this scan forever; bound the scan by its healthy maximum.
            scan_guard += 1
            if scan_guard > MAX_MATCH:
                break
        if length > best_length:
            best_length = length
            best_offset = core.execute(Op.SUB, position, candidate)
            if length >= MAX_MATCH:
                break
    if best_length < MIN_MATCH:
        return (0, 0)
    return (best_offset, best_length)


def _golden_compress(data: bytes, window: int) -> tuple[bytes, int]:
    """``compress`` on a defect-free core: the blob and its exact op count.

    Host-speed twin of ``_find_match``/``compress`` for a core no defect
    of which targets BEQ, ADD or SUB.  The count is data-dependent: one
    BEQ per candidate scanned, BEQ+ADD per extended byte plus the BEQ
    that ends an extension on a mismatch, one SUB per improved match,
    one ADD per token.  Pinned to the per-op path, bytes and count, by
    tests/test_workloads_compression.py and
    tests/test_properties_extended.py.
    """
    data = bytes(data)
    out = bytearray()
    n_ops = 0
    limit = len(data)
    position = 0
    while position < limit:
        start = max(0, position - window)
        reach = min(limit - position, MAX_MATCH)
        wanted = int.from_bytes(data[position:position + reach], "big")
        best_offset = best_length = 0
        candidate = position
        while True:
            candidate = data.rfind(data[position], start, candidate)
            if candidate < 0:
                candidate = start
                break
            # common prefix of the two reach-byte strings, read off the
            # highest set bit of their big-endian difference
            differ = wanted ^ int.from_bytes(
                data[candidate:candidate + reach], "big")
            length = reach - (differ.bit_length() + 7) // 8
            n_ops += 2 * length + (length < reach)
            if length > best_length:
                best_length = length
                best_offset = position - candidate
                n_ops += 1
                if length >= MAX_MATCH:
                    break
        # the scan's BEQs, down to where it stopped, and the cursor ADD
        n_ops += position - candidate + 1
        if best_length >= MIN_MATCH:
            out.extend((MATCH, best_offset - 1, best_length - MIN_MATCH))
            position += best_length
        else:
            out.extend((LITERAL, data[position]))
            position += 1
    return bytes(out), n_ops


def compress(core: CoreLike, data: bytes, window: int = WINDOW) -> bytes:
    """Compress ``data``; output always round-trips on a healthy core."""
    if not 1 <= window <= WINDOW:
        raise ValueError(f"window must be in [1, {WINDOW}]")
    # The op count is known only once the blob is: ask permission with a
    # zero-op credit (never raises, False offline), then pay the count.
    if credit_untargeted(core, _COMPRESS_OPS, 0):
        blob, n_ops = _golden_compress(data, window)
        credit_untargeted(core, _COMPRESS_OPS, n_ops)
        return blob
    out = bytearray()
    position = 0
    while position < len(data):
        offset, length = _find_match(core, data, position, window)
        if length >= MIN_MATCH:
            out.append(MATCH)
            out.append(offset - 1)
            out.append(length - MIN_MATCH)
            advanced = core.execute(Op.ADD, position, length)
        else:
            out.append(LITERAL)
            out.append(data[position])
            advanced = core.execute(Op.ADD, position, 1)
        if advanced <= position:
            # A corrupted cursor update would loop the compressor
            # forever; real encoders carry exactly this kind of
            # forward-progress assertion, which turns the hang into a
            # crash (the detectable §2 symptom).
            raise CorruptStreamError(
                f"compressor made no forward progress at {position}"
            )
        position = advanced
    return bytes(out)


def decompress(core: CoreLike, blob: bytes) -> bytes:
    """Decompress; raises :class:`CorruptStreamError` on bad structure.

    Match bytes are moved through the core's COPY datapath in
    word-packed chunks, exposing decompression to copy-unit defects.
    """
    out = bytearray()
    index = 0
    while index < len(blob):
        tag = blob[index]
        if tag == LITERAL:
            if index + 1 >= len(blob):
                raise CorruptStreamError("truncated literal")
            value = core.execute(Op.LOAD, blob[index + 1])
            out.append(value & 0xFF)
            index += 2
        elif tag == MATCH:
            if index + 2 >= len(blob):
                raise CorruptStreamError("truncated match")
            offset = core.execute(Op.ADD, blob[index + 1], 1)
            length = core.execute(Op.ADD, blob[index + 2], MIN_MATCH)
            start = core.execute(Op.SUB, len(out), offset)
            if offset > len(out):
                raise CorruptStreamError(
                    f"match offset {offset} exceeds output size {len(out)}"
                )
            if length > MAX_MATCH:
                # Only a corrupted length computation can exceed the
                # format's maximum; fail fast instead of copying forever.
                raise CorruptStreamError(f"match length {length} impossible")
            # Overlapping matches must copy byte-at-a-time semantics;
            # copy in sub-chunks no larger than the non-overlapping span.
            copied = 0
            while copied < length:
                span = min(length - copied, len(out) - (start + copied))
                if span <= 0:
                    # A corrupted match start at or past the end of the
                    # output leaves nothing to copy, now or ever: the
                    # compressor's forward-progress guard, decode side.
                    raise CorruptStreamError(
                        f"match start {start} outside output of {len(out)}"
                    )
                chunk = tuple(out[start + copied:start + copied + span])
                moved = core.execute(Op.COPY, chunk)
                out.extend(byte & 0xFF for byte in moved)
                copied += span
            index += 3
        else:
            raise CorruptStreamError(f"bad tag {tag:#x} at {index}")
    return bytes(out)


def compression_workload(core: CoreLike, data: bytes) -> WorkloadResult:
    """Compress+decompress with a round-trip self-check.

    The round-trip check is the natural application-level SDC check
    (§6); crashes of the codec are reported as crashes, which become
    CRASH signals for the detection layer.  Besides the codec's own
    :class:`CorruptStreamError` (a ``ValueError``) that is the plain
    ``ValueError`` of a corrupted offset that no longer fits its byte.
    """
    try:
        blob = compress(core, data)
        restored = decompress(core, blob)
    except (ValueError, IndexError) as exc:
        return WorkloadResult(
            name="compression",
            output_digest=0,
            crashed=True,
            detail=f"{type(exc).__name__}: {exc}",
        )
    return WorkloadResult(
        name="compression",
        output_digest=digest_bytes(blob),
        app_detected=restored != data,
        units=len(data),
    )
