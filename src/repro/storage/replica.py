"""One storage replica: memtable + WAL + compaction on a fleet core.

Every byte a replica durably holds crossed its core's copy datapath at
least once (WAL append, memtable install, compaction rewrite), so a
mercurial core corrupts well-formed records exactly where a real one
would: in flight on the write path, or at rest when compaction rewrites
a previously-good record.  Frame checksums ride in protected metadata
(small, ECC/DMA-guarded in real systems) and are *not* subject to core
defects — the interesting failures are in the data bytes, as in the
paper's database-index incident.
"""

from __future__ import annotations

import dataclasses

from repro.silicon.core import Core
from repro.silicon.errors import MachineCheckError
from repro.storage.wal import WriteAheadLog, ReplayReport
from repro.workloads.copying import copy_bytes
from repro.workloads.hashing import crc64


@dataclasses.dataclass
class ReplicaStats:
    """Per-replica accounting (physical bytes drive write amplification)."""

    puts: int = 0
    gets: int = 0
    physical_bytes: int = 0
    compactions: int = 0
    repairs_applied: int = 0
    recoveries: int = 0


class StorageReplica:
    """A storage server process pinned to one fleet core.

    Args:
        replica_id: stable id, e.g. ``"store/0"``.
        core: the fleet core all data movement runs through.
        use_wal: keep a write-ahead log (the unprotected baseline
            skips it — and pays for that at crash recovery).
        verify_wal_on_replay: CRC-check frames during recovery replay.
    """

    def __init__(
        self,
        replica_id: str,
        core: Core,
        use_wal: bool = True,
        verify_wal_on_replay: bool = True,
    ):
        self.replica_id = replica_id
        self.core = core
        self.use_wal = use_wal
        self.wal = (
            WriteAheadLog(core, verify_on_replay=verify_wal_on_replay)
            if use_wal else None
        )
        self.table: dict[str, bytes] = {}
        self.meta_crc: dict[str, int] = {}
        #: chaos hook: force the next N operations to raise machine checks
        self.forced_mce_remaining = 0
        self.stats = ReplicaStats()

    @property
    def core_id(self) -> str:
        return self.core.core_id

    @property
    def available(self) -> bool:
        return self.core.online

    def _maybe_forced_mce(self, op: str) -> None:
        if self.forced_mce_remaining > 0:
            self.forced_mce_remaining -= 1
            raise MachineCheckError(
                self.core_id, op, "chaos-injected machine check"
            )

    def put(self, seqno: int, key: str, value: bytes, crc: int) -> None:
        """Durably store one record (WAL append, then memtable install).

        ``crc`` is the frame checksum sealed by the coordinator before
        the bytes crossed any storage core.

        Raises:
            CoreOfflineError: the core is crashed/quarantined.
            MachineCheckError: a fail-noisy defect (or chaos) fired.
        """
        self._maybe_forced_mce("store")
        if self.wal is not None:
            self.wal.append(seqno, key, value, crc)
            self.stats.physical_bytes += len(value)
        stored = copy_bytes(self.core, value)
        self.table[key] = stored
        self.meta_crc[key] = crc
        self.stats.puts += 1
        self.stats.physical_bytes += len(value)

    def get(self, key: str) -> tuple[bytes, int] | None:
        """Read one record through the core's load path.

        Returns ``(bytes as served, frame crc)`` — the served bytes may
        be corrupted in flight even when the at-rest copy is good.

        Raises:
            CoreOfflineError: the core is crashed/quarantined.
            MachineCheckError: a fail-noisy defect (or chaos) fired.
        """
        self._maybe_forced_mce("load")
        stored = self.table.get(key)
        if stored is None:
            return None
        fetched = copy_bytes(self.core, stored)
        self.stats.gets += 1
        return fetched, self.meta_crc[key]

    def checksum(self, key: str) -> int | None:
        """Scrub checksum of the at-rest bytes, computed on *this* core.

        The scrub computation itself crosses the suspect silicon — a
        defective ALU mis-computes the checksum just as it corrupts
        data, and either way the divergence points at this core.
        """
        stored = self.table.get(key)
        if stored is None:
            return None
        return crc64(self.core, stored)

    def compact(self) -> int:
        """Rewrite the memtable through the core (at-rest rot source).

        Returns the number of rewritten records.  Compaction is where
        a previously-good record can go bad: the rewrite crosses the
        defective copy path again.
        """
        rewritten = 0
        for key in sorted(self.table):
            value = self.table[key]
            self.table[key] = copy_bytes(self.core, value)
            self.stats.physical_bytes += len(value)
            rewritten += 1
        self.stats.compactions += 1
        return rewritten

    def repair(self, key: str, value: bytes, crc: int) -> None:
        """Install a verified value fetched from the healthy quorum.

        The repair channel is end-to-end checked (the anti-entropy RPC
        carries its own frame checksum and the receiver verifies before
        install), so the installed bytes are exactly the quorum's.
        """
        self.table[key] = value
        self.meta_crc[key] = crc
        self.stats.repairs_applied += 1
        self.stats.physical_bytes += len(value)

    def crash_recover(self) -> ReplayReport | None:
        """Rebuild state after a crash: memtable is gone, WAL replays.

        Returns the replay report (None when running without a WAL —
        the baseline simply loses everything it held).
        """
        self.table = {}
        self.meta_crc = {}
        self.stats.recoveries += 1
        if self.wal is None:
            return None
        table, report = self.wal.replay()
        for key, (value, crc) in table.items():
            self.table[key] = value
            self.meta_crc[key] = crc
        return report


__all__ = ["ReplicaStats", "StorageReplica"]
