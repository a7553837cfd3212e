"""CRC-framed write-ahead log with replay-time verification.

The paper's durable-path incidents (§5.2 "corruption of the database
index") motivate the framing rule every production log implements: the
record's checksum is computed over the bytes the *framing layer*
intends to write, before they cross the (possibly mercurial) replica
core on their way to media.  At replay, each frame is re-checked
host-side (the replay CRC engine models a DMA descriptor checksum — a
fixed-function block with its own ECC, not the defective core); a
mismatching or torn record truncates the log from that point, exactly
like a real WAL recovery, and surfaces as a ``WAL_CORRUPTION``
suspicion event against the core that wrote the frame.

The unverified mode (``verify_on_replay=False``) is the E16 baseline:
replay applies whatever bytes are in the log, and a corrupt frame
silently poisons the rebuilt memtable.
"""

from __future__ import annotations

import dataclasses

from repro.workloads.base import CoreLike
from repro.workloads.copying import copy_bytes
# CRC-64 computed host-side (the trusted framing/DMA engine) is the
# golden kernel an untargeted core's ``crc64`` runs.
from repro.workloads.hashing import golden_crc64 as host_crc64


@dataclasses.dataclass(frozen=True, slots=True)
class WalRecord:
    """One framed log record.

    ``value`` holds the bytes as they landed on media (after crossing
    the replica core); ``crc`` seals the bytes the framing layer
    *intended* to write — the same frame checksum the store attached
    to the record, so a replayed table is indistinguishable from a
    freshly-written one — and replay can tell the difference.
    """

    seqno: int
    key: str
    value: bytes
    crc: int

    @property
    def intact(self) -> bool:
        return host_crc64(self.value) == self.crc


@dataclasses.dataclass(slots=True)
class ReplayReport:
    """What one recovery replay observed."""

    applied: int = 0
    corrupt_records: list[int] = dataclasses.field(default_factory=list)
    truncated_from: int | None = None

    @property
    def clean(self) -> bool:
        return self.truncated_from is None and not self.corrupt_records


class WriteAheadLog:
    """An append-only record log written through one replica core.

    Args:
        core: the replica's fleet core; every appended value crosses
            its copy datapath before landing in the log.
        verify_on_replay: check frame CRCs at replay and truncate at
            the first bad record (the protected configuration).
    """

    def __init__(self, core: CoreLike, verify_on_replay: bool = True):
        self.core = core
        self.verify_on_replay = verify_on_replay
        self.records: list[WalRecord] = []
        self.bytes_written = 0
        self.records_truncated = 0

    def __len__(self) -> int:
        return len(self.records)

    def append(self, seqno: int, key: str, value: bytes, crc: int) -> WalRecord:
        """Append one record; the value crosses the core on its way in.

        ``crc`` is the frame checksum the coordinator sealed over the
        intended value bytes *before* they touched any storage core.

        Raises:
            CoreOfflineError: the replica core is down.
            MachineCheckError: a fail-noisy defect fired mid-append.
        """
        landed = copy_bytes(self.core, value)
        record = WalRecord(seqno, key, landed, crc)
        self.records.append(record)
        self.bytes_written += len(value)
        return record

    def tear_tail(self) -> bool:
        """Simulate a crash mid-append: the last record loses its tail.

        Returns True if a record was torn.  A torn record's CRC no
        longer matches, so verified replay truncates it — the classic
        torn-write recovery path.
        """
        if not self.records:
            return False
        last = self.records[-1]
        if len(last.value) <= 1:
            return False
        self.records[-1] = WalRecord(
            last.seqno, last.key, last.value[: len(last.value) // 2], last.crc
        )
        return True

    def replay(self) -> tuple[dict[str, tuple[bytes, int]], ReplayReport]:
        """Rebuild the memtable from the log.

        Returns ``(table, report)`` where ``table`` maps key →
        ``(value bytes, frame crc)``.  With verification on, the first
        corrupt record truncates the log from that point (better a
        bounded, *known* data loss than silently applying corruption);
        with verification off, corrupt records are applied blindly and
        only ``report.corrupt_records`` (ground truth the baseline
        never consults) remembers them.
        """
        table: dict[str, tuple[bytes, int]] = {}
        report = ReplayReport()
        for index, record in enumerate(self.records):
            if not record.intact:
                report.corrupt_records.append(index)
                if self.verify_on_replay:
                    report.truncated_from = index
                    self.records_truncated += len(self.records) - index
                    del self.records[index:]
                    break
            table[record.key] = (record.value, record.crc)
            report.applied += 1
        return table, report


__all__ = [
    "ReplayReport",
    "WalRecord",
    "WriteAheadLog",
    "host_crc64",
]
