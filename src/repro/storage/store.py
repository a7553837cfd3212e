"""The replicated KV store: quorum writes, voted reads, encrypt-verify.

The write path mirrors the paper's §5.2/§7 hazards end to end:

1. the coordinator encrypts the value on a *fleet* core (rotating, so
   sometimes the mercurial one) — the §5.2 incident is "encryption on
   a mercurial core made data permanently unrecoverable";
2. with ``encrypt_verify`` on, the ciphertext must decrypt correctly
   on a *second* core before it is acked, and a disagreement is
   arbitrated on a *third* core so the blame lands on the actual
   miscomputing core (encryptor vs verifier) — this single check is
   what turns the unrecoverable incident into a retried write;
3. the framed record (host-side CRC sealed before any storage core
   touches the bytes) is written to ``N_REPLICAS`` replicas and acked
   at ``write_quorum``.

The read path votes: every online replica serves its copy through its
own core, responses failing their frame CRC are discarded, the
majority value wins at ``read_quorum``, and divergent or missing
replicas are read-repaired from the majority.  Each divergence becomes
a ``QUORUM_MISMATCH`` suspicion event against the minority replica's
core — replication doubles as free CEE detection (§7's dual-execution
observation).

The unprotected baseline (every flag off) reads one replica and
decrypts on that replica's own core: corrupted-but-well-formed records
come back as silent wrong answers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro import obs
from repro.core.events import EventKind
from repro.silicon.core import Core
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.storage.replica import StorageReplica
from repro.storage.wal import host_crc64
from repro.workloads.crypto import BLOCK_BYTES, decrypt_block, encrypt_block, expand_key

#: emit(core_id, kind, detail) — the campaign stamps time and machine
EmitFn = Callable[[str, EventKind, str], None]
#: on_repair(replica_id, key) — ground-truth repair-latency accounting
RepairFn = Callable[[str, str], None]

#: replicas every store writes to and votes over
N_REPLICAS = 3
#: re-encryptions (on the advanced coordinator rotation) after a
#: ciphertext fails its decrypt-elsewhere check
ENCRYPT_RETRIES = 3


@dataclasses.dataclass(frozen=True)
class StoreConfig:
    """Which durable-path defences the store runs (the E16 knob).

    Every value is encrypted, and must be a whole number of AES blocks
    (16 bytes); the store deliberately uses un-padded block encryption
    so a corrupted record stays *well-formed* — the paper's silent
    hazard — instead of tripping a padding error by accident.
    """

    write_quorum: int = 2
    read_quorum: int = 2
    encrypt_verify: bool = True
    vote_reads: bool = True
    verify_read_crc: bool = True
    key: bytes = bytes(range(16))

    def __post_init__(self) -> None:
        if not 1 <= self.write_quorum <= N_REPLICAS:
            raise ValueError("write_quorum must be in [1, N_REPLICAS]")
        if not 1 <= self.read_quorum <= N_REPLICAS:
            raise ValueError("read_quorum must be in [1, N_REPLICAS]")
        if len(self.key) != 16:
            raise ValueError(
                f"key must be 16 bytes (AES-128), got {len(self.key)}"
            )

    @classmethod
    def unprotected(cls) -> "StoreConfig":
        """The baseline: replicate, but trust every core."""
        return cls(
            write_quorum=1, read_quorum=1, encrypt_verify=False,
            vote_reads=False, verify_read_crc=False,
        )


@dataclasses.dataclass
class WriteResult:
    """Outcome of one quorum write attempt."""

    ok: bool
    acks: int = 0
    encrypt_attempts: int = 0
    encrypt_verify_failures: int = 0
    machine_checks: int = 0
    ciphertext: bytes | None = None


@dataclasses.dataclass
class ReadResult:
    """Outcome of one read: value, vote tallies, repairs triggered."""

    ok: bool
    value: bytes | None = None
    responses: int = 0
    corrupt_rejected: int = 0
    quorum_mismatches: int = 0
    repaired_replicas: list[str] = dataclasses.field(default_factory=list)
    machine_checks: int = 0


class ReplicatedKVStore:
    """Quorum-replicated KV store whose every byte crosses fleet silicon.

    Args:
        replicas: the storage replicas (placed on fleet cores).
        coordinator_cores: rotation pool for coordinator-side work
            (encryption and its verify/arbitrate decryptions).
        trusted_core: the client's own core — the honest endpoint the
            end-to-end argument requires; protected reads decrypt here.
        emit: event sink ``(core_id, kind, detail)``; the campaign
            stamps time/machine and feeds the detection loop.
        on_repair: callback ``(replica_id, key)`` fired whenever a
            replica is repaired (read-repair, scrub, anti-entropy).
    """

    def __init__(
        self,
        replicas: Sequence[StorageReplica],
        coordinator_cores: Sequence[Core],
        trusted_core: Core,
        config: StoreConfig | None = None,
        emit: EmitFn | None = None,
        on_repair: RepairFn | None = None,
    ):
        self.config = config or StoreConfig()
        if len(replicas) != N_REPLICAS:
            raise ValueError(
                f"expected {N_REPLICAS} replicas, got {len(replicas)}"
            )
        if not coordinator_cores:
            raise ValueError("need at least one coordinator core")
        self.replicas = list(replicas)
        self.coordinator_cores = list(coordinator_cores)
        self.trusted_core = trusted_core
        self.emit = emit or (lambda core_id, kind, detail: None)
        self.on_repair = on_repair or (lambda replica_id, key: None)
        self.seqno = 0
        self._coord_cursor = 0
        self._read_cursor = 0

    # -- coordinator-side crypto ---------------------------------------

    def _ecb(self, core: Core, data: bytes, encrypt: bool) -> bytes:
        """Un-padded ECB over whole blocks, all on ``core``."""
        if len(data) % BLOCK_BYTES:
            raise ValueError("values must be whole AES blocks")
        round_keys = expand_key(core, self.config.key)
        out = bytearray()
        for start in range(0, len(data), BLOCK_BYTES):
            block = data[start:start + BLOCK_BYTES]
            if encrypt:
                out.extend(encrypt_block(core, block, round_keys))
            else:
                out.extend(decrypt_block(core, block, round_keys))
        return bytes(out)

    def _next_coordinator(
        self, exclude: set[str] | None = None
    ) -> Core | None:
        """Next online coordinator core, skipping ``exclude``."""
        exclude = exclude or set()
        n = len(self.coordinator_cores)
        for offset in range(n):
            core = self.coordinator_cores[(self._coord_cursor + offset) % n]
            if core.online and core.core_id not in exclude:
                self._coord_cursor = (self._coord_cursor + offset + 1) % n
                return core
        return None

    def _encrypt_verified(self, value: bytes, result: WriteResult) -> bytes | None:
        """Encrypt on a fleet core; require decrypt-elsewhere before ack.

        The §5.2 defence: a ciphertext nobody else can decrypt must
        never be replicated.  On disagreement a third core arbitrates
        so the ``ENCRYPT_VERIFY_FAIL`` event blames the core that
        actually miscomputed (the self-inverting AES defect makes the
        encryptor's own decrypt useless as a check).
        """
        for _ in range(ENCRYPT_RETRIES + 1):
            enc_core = self._next_coordinator()
            if enc_core is None:
                return None
            result.encrypt_attempts += 1
            try:
                ciphertext = self._ecb(enc_core, value, encrypt=True)
            except MachineCheckError:
                result.machine_checks += 1
                self.emit(enc_core.core_id, EventKind.MACHINE_CHECK,
                          "mce during encrypt")
                continue
            if not self.config.encrypt_verify:
                return ciphertext
            ver_core = self._next_coordinator(exclude={enc_core.core_id})
            if ver_core is None:
                return ciphertext  # degraded: nobody left to check
            try:
                verified = self._ecb(ver_core, ciphertext, encrypt=False)
            except MachineCheckError:
                result.machine_checks += 1
                self.emit(ver_core.core_id, EventKind.MACHINE_CHECK,
                          "mce during encrypt-verify")
                continue
            if verified == value:
                return ciphertext
            result.encrypt_verify_failures += 1
            arb_core = self._next_coordinator(
                exclude={enc_core.core_id, ver_core.core_id}
            )
            if arb_core is not None:
                try:
                    arbitrated = self._ecb(arb_core, ciphertext, encrypt=False)
                except MachineCheckError:
                    arbitrated = None
                if arbitrated == value:
                    # Ciphertext is fine; the *verifier* miscomputed.
                    self.emit(
                        ver_core.core_id, EventKind.ENCRYPT_VERIFY_FAIL,
                        "verify decrypt diverged; arbiter sided with "
                        "the encryptor",
                    )
                    return ciphertext
            self.emit(
                enc_core.core_id, EventKind.ENCRYPT_VERIFY_FAIL,
                "ciphertext failed decrypt-on-a-second-core check",
            )
            # Retry on the advanced rotation: a different encryptor.
        return None

    # -- writes --------------------------------------------------------

    def put(self, key: str, value: bytes) -> WriteResult:
        """Quorum write of one encrypted framed record."""
        with obs.tracer.span("storage.put", key=key) as sp:
            result = WriteResult(ok=False)
            payload = self._encrypt_verified(value, result)
            if payload is not None:
                result.ciphertext = payload
                crc = host_crc64(payload)
                self.seqno += 1
                for replica in self.replicas:
                    try:
                        replica.put(self.seqno, key, payload, crc)
                        result.acks += 1
                    except CoreOfflineError:
                        continue
                    except MachineCheckError:
                        result.machine_checks += 1
                        self.emit(replica.core_id, EventKind.MACHINE_CHECK,
                                  "mce during replica store")
                result.ok = result.acks >= self.config.write_quorum
            sp.attrs["ok"] = result.ok
            sp.attrs["acks"] = result.acks
            return result

    # -- reads ---------------------------------------------------------

    def _decrypt(self, core: Core, payload: bytes) -> bytes | None:
        try:
            return self._ecb(core, payload, encrypt=False)
        except MachineCheckError:
            return None

    def get(self, key: str) -> ReadResult:
        """Voted quorum read (protected) or read-one (baseline)."""
        with obs.tracer.span("storage.get", key=key) as sp:
            result = (
                self._get_voted(key) if self.config.vote_reads
                else self._get_unchecked(key)
            )
            sp.attrs["ok"] = result.ok
            sp.attrs["mismatches"] = result.quorum_mismatches
            return result

    def _get_unchecked(self, key: str) -> ReadResult:
        """Baseline: one replica, no checksum, decrypt on *its* core."""
        result = ReadResult(ok=False)
        n = len(self.replicas)
        for offset in range(n):
            replica = self.replicas[(self._read_cursor + offset) % n]
            if not replica.available:
                continue
            self._read_cursor = (self._read_cursor + offset + 1) % n
            try:
                response = replica.get(key)
            except (CoreOfflineError, MachineCheckError):
                return result
            if response is None:
                return result
            payload, _ = response
            result.responses = 1
            value = self._decrypt(replica.core, payload)
            if value is None:
                return result
            result.value = value
            result.ok = True
            return result
        return result

    def _get_voted(self, key: str) -> ReadResult:
        result = ReadResult(ok=False)
        responses: list[tuple[StorageReplica, bytes, int]] = []
        missing: list[StorageReplica] = []
        for replica in self.replicas:
            if not replica.available:
                continue
            try:
                response = replica.get(key)
            except CoreOfflineError:
                continue
            except MachineCheckError:
                result.machine_checks += 1
                self.emit(replica.core_id, EventKind.MACHINE_CHECK,
                          "mce during replica read")
                continue
            if response is None:
                missing.append(replica)
                continue
            payload, crc = response
            if self.config.verify_read_crc and host_crc64(payload) != crc:
                result.corrupt_rejected += 1
                self.emit(
                    replica.core_id, EventKind.QUORUM_MISMATCH,
                    "read response failed its frame CRC",
                )
                continue
            responses.append((replica, payload, crc))
        result.responses = len(responses)
        if not responses:
            return result
        counts: dict[bytes, int] = {}
        for _, payload, _ in responses:
            counts[payload] = counts.get(payload, 0) + 1
        majority_payload, majority_count = max(
            counts.items(), key=lambda kv: (kv[1], kv[0])
        )
        if majority_count < self.config.read_quorum:
            return result
        majority_crc = next(
            crc for _, payload, crc in responses
            if payload == majority_payload
        )
        for replica, payload, _ in responses:
            if payload != majority_payload:
                result.quorum_mismatches += 1
                self.emit(
                    replica.core_id, EventKind.QUORUM_MISMATCH,
                    "replica response diverged from the voted majority",
                )
                replica.repair(key, majority_payload, majority_crc)
                result.repaired_replicas.append(replica.replica_id)
                self.on_repair(replica.replica_id, key)
        for replica in missing:
            replica.repair(key, majority_payload, majority_crc)
            result.repaired_replicas.append(replica.replica_id)
            self.on_repair(replica.replica_id, key)
        value = self._decrypt(self.trusted_core, majority_payload)
        if value is None:
            return result
        result.value = value
        result.ok = True
        return result


__all__ = ["ReadResult", "ReplicatedKVStore", "StoreConfig", "WriteResult"]
