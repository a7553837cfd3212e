"""Merkle-tree anti-entropy: find divergent ranges, repair from quorum.

Scrubbing walks keys one window at a time; anti-entropy answers the
complementary question — "are these replicas *identical*?" — in O(1)
when they are (one root comparison) and O(divergent buckets) when they
are not.  Digests here are host-side (the DMA/checksum offload engine
real anti-entropy uses, with its own ECC — not the suspect core), so
the tree describes the at-rest bytes exactly.  When roots differ the
sync descends into the mismatching buckets, majority-votes each
divergent key preferring frame-CRC-valid copies, repairs the minority
through the verified repair channel, and emits a ``SCRUB_MISMATCH``
suspicion event against the divergent replica's core — the core that
wrote (or rotted) those bytes.
"""

from __future__ import annotations

import dataclasses

from repro.core.events import EventKind
from repro.storage.replica import StorageReplica
from repro.storage.store import ReplicatedKVStore
from repro.storage.wal import host_crc64


@dataclasses.dataclass(frozen=True)
class MerkleTree:
    """A two-level Merkle summary: per-bucket digests and their root."""

    buckets: tuple[int, ...]
    root: int


#: Merkle fanout (coarser = cheaper roots, finer = smaller repair ranges)
MERKLE_BUCKETS = 16


def bucket_of(key: str, n_buckets: int) -> int:
    """Deterministic key → bucket placement (shared by all replicas)."""
    return host_crc64(key.encode()) % n_buckets


def build_merkle_tree(table: dict[str, bytes]) -> MerkleTree:
    """Digest a replica's at-rest table into a fixed-fanout Merkle tree."""
    payloads: list[bytearray] = [bytearray() for _ in range(MERKLE_BUCKETS)]
    for key in sorted(table):
        value = table[key]
        payloads[bucket_of(key, MERKLE_BUCKETS)].extend(
            key.encode() + b"\x00" + value + b"\x01"
        )
    buckets = tuple(host_crc64(bytes(payload)) for payload in payloads)
    root = host_crc64(
        b"".join(digest.to_bytes(8, "little") for digest in buckets)
    )
    return MerkleTree(buckets=buckets, root=root)


@dataclasses.dataclass
class SyncReport:
    """What one anti-entropy round observed."""

    root_match: bool = False
    divergent_buckets: int = 0
    keys_compared: int = 0
    keys_repaired: int = 0
    backfills: int = 0
    unresolved: int = 0


class AntiEntropy:
    """Periodic replica synchronisation for a replicated store.

    Args:
        store: the store to synchronise; its ``emit``/``on_repair``
            hooks receive divergence events and repair notifications.
    """

    def __init__(self, store: ReplicatedKVStore):
        self.store = store
        self.rounds = 0

    def _sync_key(
        self, key: str, replicas: list[StorageReplica], report: SyncReport
    ) -> None:
        holders = [r for r in replicas if key in r.table]
        absent = [r for r in replicas if key not in r.table]
        candidates: list[tuple[StorageReplica, bytes, int]] = []
        for replica in holders:
            value = replica.table[key]
            crc = replica.meta_crc[key]
            candidates.append((replica, value, crc))
        report.keys_compared += 1
        # Prefer frame-CRC-valid copies as vote material; corrupted
        # copies cannot outvote intact ones however many there are.
        valid = [c for c in candidates if host_crc64(c[1]) == c[2]]
        pool = valid if valid else candidates
        counts: dict[bytes, int] = {}
        for _, value, _ in pool:
            counts[value] = counts.get(value, 0) + 1
        majority_value, _ = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        if not valid:
            report.unresolved += 1
            return
        majority_crc = next(
            crc for _, value, crc in valid if value == majority_value
        )
        for replica, value, _ in candidates:
            if value != majority_value:
                self.store.emit(
                    replica.core_id, EventKind.SCRUB_MISMATCH,
                    "anti-entropy found this replica divergent",
                )
                replica.repair(key, majority_value, majority_crc)
                self.store.on_repair(replica.replica_id, key)
                report.keys_repaired += 1
        for replica in absent:
            replica.repair(key, majority_value, majority_crc)
            self.store.on_repair(replica.replica_id, key)
            report.backfills += 1

    def sync_round(self) -> SyncReport:
        """Compare all online replicas and repair every divergence."""
        report = SyncReport()
        self.rounds += 1
        replicas = [r for r in self.store.replicas if r.available]
        if len(replicas) < 2:
            report.root_match = True
            return report
        first = replicas[0].table
        if all(r.table == first for r in replicas[1:]):
            report.root_match = True  # equal tables give equal trees
            return report
        trees = [build_merkle_tree(r.table) for r in replicas]
        if len({tree.root for tree in trees}) == 1:
            report.root_match = True  # O(1) fast path: digests agree
            return report
        # Placement of every key any replica holds, hashed once per
        # round; repairs and backfills never add a key outside it.
        keys_in: dict[int, list[str]] = {}
        for key in dict.fromkeys(k for r in replicas for k in r.table):
            keys_in.setdefault(bucket_of(key, MERKLE_BUCKETS), []).append(key)
        for bucket in range(MERKLE_BUCKETS):
            digests = {tree.buckets[bucket] for tree in trees}
            if len(digests) == 1:
                continue
            report.divergent_buckets += 1
            for key in sorted(keys_in[bucket]):  # digests differ: not empty
                self._sync_key(key, replicas, report)
        return report


__all__ = ["AntiEntropy", "MerkleTree", "SyncReport", "build_merkle_tree"]
