"""Storage campaigns: write/read traffic + chaos + a durability scorecard.

The serving campaign (PR 1) asked "does a hardened RPC service keep its
SLOs on mercurial cores?".  This campaign asks the durable-path version
of the same question: drive a write/read stream against a
:class:`~repro.storage.store.ReplicatedKVStore` whose replicas and
coordinators run on fleet cores, inject the shared
:class:`~repro.chaos.ChaosSchedule` faults (late-onset defect
activation, replica crashes with torn WAL tails, machine-check bursts,
write bursts), and score the configuration on the metrics a storage
owner has SLOs for:

- **durable-corruption escape rate** — OK reads that returned bytes
  differing from what the client wrote (ground truth the store never
  sees);
- **unrecoverable-loss rate** — keys for which *no* replica holds a
  copy that decrypts to the written value at campaign end (the §5.2
  "data loss ... only detected at decryption time" hazard);
- **repair latency** — ticks between a replica copy first diverging
  from ground truth and a verified repair landing;
- **write amplification** — physical bytes moved through cores per
  logical byte written (the cost side of the WAL + quorum + scrub +
  anti-entropy defence stack).

Storage integrity signals feed the same detection → quarantine loop as
serving (the :class:`~repro.campaign.Campaign` kernel):
``WAL_CORRUPTION``, ``SCRUB_MISMATCH``, ``QUORUM_MISMATCH`` and
``ENCRYPT_VERIFY_FAIL`` events raise per-core suspicion with the
weights from :mod:`repro.detection.weights`, and the policy pulls the
defective core out of the replica set mid-campaign.  The baseline shows
the dual failure: with no integrity signals, the only evidence is the
chaos machine-check burst on a *healthy* replica — so the unprotected
fleet tends to quarantine the noisy innocent core while the silent
corruptor keeps serving.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np

from repro.campaign import (
    Campaign,
    CampaignScorecard,
    Published,
    build_small_fleet,
    check_at_least,
)
from repro.core.events import EventKind
from repro.core.policy import PolicyConfig
from repro.detection.weights import default_weights
from repro.fleet.machine import Machine
from repro.obs import names
from repro.silicon.aging import AgingProfile
from repro.silicon.core import Core
from repro.silicon.defects import (
    DefectModel,
    SboxPermutationDefect,
    StuckBitDefect,
)
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.units import FunctionalUnit
from repro.storage.antientropy import AntiEntropy
from repro.storage.replica import StorageReplica
from repro.storage.scrub import Scrubber
from repro.storage.store import N_REPLICAS, ReplicatedKVStore, StoreConfig
from repro.workloads.crypto import BLOCK_BYTES

#: the storage-originated suspicion signals (satellite of the E16 loop)
STORAGE_EVENT_KINDS = (
    EventKind.WAL_CORRUPTION,
    EventKind.SCRUB_MISMATCH,
    EventKind.QUORUM_MISMATCH,
    EventKind.ENCRYPT_VERIFY_FAIL,
)


@dataclasses.dataclass(frozen=True)
class StorageProtections:
    """Which layers of the durable-path defence stack are enabled."""

    name: str
    store: StoreConfig = dataclasses.field(default_factory=StoreConfig)
    use_wal: bool = True
    verify_wal_on_replay: bool = True
    scrub: bool = True
    antientropy: bool = True
    #: False = ablation where storage event kinds count as generic
    #: weight-1.0 evidence instead of their dedicated weights
    dedicated_weights: bool = True

    @classmethod
    def protected(cls) -> "StorageProtections":
        """The full stack: WAL + quorum + scrub + anti-entropy."""
        return cls(name="protected")

    @classmethod
    def unprotected(cls) -> "StorageProtections":
        """The baseline: replicated, encrypted, and entirely trusting —
        no WAL, read-one with decrypt on the replica's own core, no
        background repair, no integrity signals."""
        return cls(
            name="unprotected",
            store=StoreConfig.unprotected(),
            use_wal=False,
            verify_wal_on_replay=False,
            scrub=False,
            antientropy=False,
            dedicated_weights=False,
        )

    @classmethod
    def quorum_only(cls) -> "StorageProtections":
        """Write/read quorums and encrypt-verify, but no background
        repair — read-repair is the only healing."""
        return cls(name="quorum-only", scrub=False, antientropy=False)

    @classmethod
    def no_encrypt_verify(cls) -> "StorageProtections":
        """Full stack minus the decrypt-elsewhere check.  The quorum
        layers cannot save a write the coordinator mis-encrypted: every
        replica holds the *same* wrong ciphertext, the vote agrees on
        garbage, and the §5.2 unrecoverable loss comes back."""
        return cls(
            name="no-encrypt-verify",
            store=StoreConfig(encrypt_verify=False),
        )

    @classmethod
    def generic_weights(cls) -> "StorageProtections":
        """Full stack, but storage signals weighted like any other
        event — the quarantine-acceleration ablation."""
        return cls(name="generic-weights", dedicated_weights=False)


# Traffic shape: Poisson arrivals per tick, one AES block per value.
WRITES_PER_TICK = 1.0
READS_PER_TICK = 2.0
PAYLOAD_BYTES = BLOCK_BYTES
# Maintenance cadence, in ticks, and the scrubber's keys per round.
SCRUB_INTERVAL = 25
SCRUB_KEYS_PER_ROUND = 16
ANTIENTROPY_INTERVAL = 40
COMPACT_INTERVAL = 50


@dataclasses.dataclass
class StorageCampaignConfig:
    """Run length and quarantine policy for one storage campaign."""

    ticks: int = 600
    policy: PolicyConfig = dataclasses.field(default_factory=PolicyConfig)
    #: a constant, not an option; read through the config like the
    #: other runners' tick length
    tick_ms: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        check_at_least("ticks", self.ticks, 0)


@dataclasses.dataclass
class StorageScorecard(CampaignScorecard):
    """What one storage configuration achieved under chaos."""

    rates = (
        "escape_rate", "unrecoverable_loss_rate", "read_availability",
        "write_amplification", "mean_repair_latency_ms",
        "p99_repair_latency_ms",
    )

    writes_attempted: int = 0
    keys_written: int = 0
    write_failures: int = 0
    reads_attempted: int = 0
    reads_ok: int = 0
    read_failures: int = 0
    durable_escapes: int = 0
    corrupt_reads_caught: int = 0
    quorum_mismatches: int = 0
    encrypt_attempts: int = 0
    encrypt_verify_failures: int = 0
    scrub_mismatches: int = 0
    repairs_total: int = 0
    backfills: int = 0
    repair_latency_ms: list[float] = dataclasses.field(default_factory=list)
    wal_corrupt_records: int = 0
    wal_torn_tails: int = 0
    wal_records_truncated: int = 0
    unrecoverable_keys: int = 0
    lasting_divergence: int = 0
    machine_checks: int = 0
    logical_bytes: int = 0
    physical_bytes: int = 0

    @property
    def escape_rate(self) -> float:
        """Silently-wrong OK reads per OK read (the headline SLO)."""
        if self.reads_ok == 0:
            return 0.0
        return self.durable_escapes / self.reads_ok

    @property
    def unrecoverable_loss_rate(self) -> float:
        """Fraction of acked keys no replica can restore to truth."""
        if self.keys_written == 0:
            return 0.0
        return self.unrecoverable_keys / self.keys_written

    @property
    def read_availability(self) -> float:
        if self.reads_attempted == 0:
            return 1.0
        return self.reads_ok / self.reads_attempted

    @property
    def write_amplification(self) -> float:
        """Physical bytes through cores per logical byte acked."""
        if self.logical_bytes == 0:
            return 0.0
        return self.physical_bytes / self.logical_bytes

    @property
    def mean_repair_latency_ms(self) -> float:
        if not self.repair_latency_ms:
            return 0.0
        return float(np.mean(np.array(self.repair_latency_ms)))

    @property
    def p99_repair_latency_ms(self) -> float:
        return self.percentile(self.repair_latency_ms, 99.0)

    def summary_row(self) -> list[str]:
        return [
            self.name,
            f"{self.escape_rate:.2%}",
            f"{self.unrecoverable_loss_rate:.2%}",
            f"{self.read_availability:.2%}",
            f"{self.write_amplification:.2f}x",
            f"{self.mean_repair_latency_ms:.0f}",
            str(self.corrupt_reads_caught + self.scrub_mismatches),
            str(self.repairs_total),
            str(len(self.quarantine_tick)),
        ]


class StorageCampaign(Campaign):
    """One protection stack, one fleet, one chaos script, one scorecard."""

    scorecard: StorageScorecard
    quarantine_span = names.SPAN_STORAGE_QUARANTINE
    published = (
        Published(
            names.STORAGE_WRITES_TOTAL, "counter", "writes",
            "client writes, by quorum outcome",
            lambda card: {
                "ok": card.keys_written, "fail": card.write_failures,
            },
            label="status",
        ),
        Published(
            names.STORAGE_READS_TOTAL, "counter", "reads",
            "client reads, by quorum outcome",
            lambda card: {"ok": card.reads_ok, "fail": card.read_failures},
            label="status",
        ),
        Published(
            names.STORAGE_DURABLE_ESCAPES_TOTAL, "counter", "reads",
            "OK reads returning bytes differing from what the "
            "client wrote (ground truth)",
            lambda card: card.durable_escapes,
        ),
        Published(
            names.STORAGE_REPAIRS_TOTAL, "counter", "repairs",
            "verified read-repair / backfill writes",
            lambda card: card.repairs_total,
        ),
        Published(
            names.STORAGE_REPAIR_LATENCY_MS, "histogram", "ms",
            "replica divergence to verified repair (simulated)",
            lambda card: card.repair_latency_ms,
            buckets=(10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0),
        ),
        Published(
            names.STORAGE_QUARANTINES_TOTAL, "counter", "cores",
            "cores pulled from the replica set by the campaign "
            "policy loop",
            lambda card: len(card.quarantine_tick),
        ),
    )

    def __init__(
        self,
        machines: list[Machine],
        protections: StorageProtections | None = None,
        config: StorageCampaignConfig | None = None,
        seed: int = 0,
    ):
        self.protections = protections or StorageProtections.protected()
        self.config = config or StorageCampaignConfig()
        weights = default_weights()
        if not self.protections.dedicated_weights:
            for kind in STORAGE_EVENT_KINDS:
                weights[kind] = 1.0
        # The kernel's trusted client core is the honest endpoint here
        # too: protected reads decrypt on it, and so does the final
        # recoverability audit.
        super().__init__(
            machines, StorageScorecard(name=self.protections.name),
            self.config.policy, label="storage",
            tick_ms=self.config.tick_ms, seed=seed, weights=weights,
        )
        self.rng = np.random.default_rng(seed)

        self._replica_counter = 0
        replicas = self._place_initial_replicas()
        # Key-wrap duty is colocated with storage: the replica cores
        # themselves take turns encrypting, so the defective core
        # regularly handles encryption — the §5.2 setup, where the
        # machine doing the key-wrap was the mercurial one.
        coordinators = [replica.core for replica in replicas]
        self.store = ReplicatedKVStore(
            replicas,
            coordinators,
            self.client_core,
            config=self.protections.store,
            emit=self.emit,
            on_repair=self._on_repair,
        )
        self.scrubber = (
            Scrubber(self.store, SCRUB_KEYS_PER_ROUND)
            if self.protections.scrub else None
        )
        self.antientropy = (
            AntiEntropy(self.store) if self.protections.antientropy else None
        )

        self.truth: dict[str, bytes] = {}
        self._truth_payload: dict[str, bytes] = {}
        self._keys: list[str] = []
        self._key_seq = 0
        self._tick = 0
        self._divergent_since: dict[tuple[str, str], int] = {}
        self._retired_physical_bytes = 0

    # -- placement -----------------------------------------------------

    def _make_replica(self, core: Core) -> StorageReplica:
        replica = StorageReplica(
            f"store/{self._replica_counter}",
            core,
            use_wal=self.protections.use_wal,
            verify_wal_on_replay=self.protections.verify_wal_on_replay,
        )
        self._replica_counter += 1
        return replica

    def _place_initial_replicas(self) -> list[StorageReplica]:
        return [
            self._make_replica(core)
            for core in self.place(N_REPLICAS, "replicas")
        ]

    def replace_quarantined(self) -> None:
        """Re-place each replica off its (now quarantined) core.

        The replacement starts empty on a spare core; anti-entropy
        backfills it from the healthy quorum on its next sync round —
        quarantine costs capacity, not data.
        """
        for index, old in enumerate(self.store.replicas):
            if old.core_id not in self.scorecard.quarantine_tick:
                continue
            new_core = self.spare_core({r.core_id for r in self.store.replicas})
            if new_core is None:
                continue  # degraded: run with fewer replicas
            self._retired_physical_bytes += old.stats.physical_bytes
            for (replica_id, key) in list(self._divergent_since):
                if replica_id == old.replica_id:
                    del self._divergent_since[(replica_id, key)]
            self.store.replicas[index] = self._make_replica(new_core)

    # -- event plumbing ------------------------------------------------

    def _on_repair(self, replica_id: str, key: str) -> None:
        self.scorecard.repairs_total += 1
        since = self._divergent_since.pop((replica_id, key), None)
        if since is not None:
            latency_ms = (self._tick - since) * self.config.tick_ms
            self.scorecard.repair_latency_ms.append(latency_ms)

    # -- chaos ---------------------------------------------------------

    def hosted_on(self, core_id: str) -> list[StorageReplica]:
        return [r for r in self.store.replicas if r.core_id == core_id]

    def on_crash(self, core_id: str) -> None:
        for replica in self.hosted_on(core_id):
            # A crash interrupts the in-flight append.
            if replica.wal is not None and replica.wal.tear_tail():
                self.scorecard.wal_torn_tails += 1

    def on_restore(self, core_id: str) -> None:
        for replica in self.hosted_on(core_id):
            self._recover_replica(replica)

    def _recover_replica(self, replica: StorageReplica) -> None:
        """Crash recovery: replay the WAL, surface what it caught."""
        wal_len = len(replica.wal) if replica.wal is not None else 0
        report = replica.crash_recover()
        if report is None:
            return
        card = self.scorecard
        card.wal_corrupt_records += len(report.corrupt_records)
        if report.truncated_from is not None:
            card.wal_records_truncated += wal_len - report.truncated_from
        for index in report.corrupt_records:
            # A bad CRC on the *final* record is the expected torn-tail
            # crash artifact, not evidence against the core; anything
            # earlier was corrupted in flight on the write path.
            if index == wal_len - 1:
                continue
            self.emit(
                replica.core_id, EventKind.WAL_CORRUPTION,
                "WAL record failed frame CRC at recovery replay",
            )

    # -- traffic -------------------------------------------------------

    def _do_writes(self) -> None:
        card = self.scorecard
        arrivals = int(self.rng.poisson(
            WRITES_PER_TICK * self.burst_multiplier
        ))
        for _ in range(arrivals):
            key = f"k{self._key_seq:06d}"
            self._key_seq += 1
            value = self.rng.bytes(PAYLOAD_BYTES)
            card.writes_attempted += 1
            result = self.store.put(key, value)
            card.encrypt_attempts += result.encrypt_attempts
            card.encrypt_verify_failures += result.encrypt_verify_failures
            card.machine_checks += result.machine_checks
            if result.ok:
                card.keys_written += 1
                card.logical_bytes += len(value)
                self.truth[key] = value
                self._truth_payload[key] = result.ciphertext
                self._keys.append(key)
            else:
                card.write_failures += 1

    def _do_reads(self) -> None:
        card = self.scorecard
        if not self._keys:
            return
        arrivals = int(self.rng.poisson(
            READS_PER_TICK * self.burst_multiplier
        ))
        for _ in range(arrivals):
            key = self._keys[int(self.rng.integers(len(self._keys)))]
            card.reads_attempted += 1
            result = self.store.get(key)
            card.corrupt_reads_caught += (
                result.corrupt_rejected + result.quorum_mismatches
            )
            card.quorum_mismatches += result.quorum_mismatches
            card.machine_checks += result.machine_checks
            if result.ok:
                card.reads_ok += 1
                # Ground truth the store never sees: did the client get
                # back the bytes it wrote?
                if result.value != self.truth[key]:
                    card.durable_escapes += 1
            else:
                card.read_failures += 1

    # -- maintenance ---------------------------------------------------

    def _maintenance(self, tick: int) -> None:
        card = self.scorecard
        if (
            self.scrubber is not None
            and tick % SCRUB_INTERVAL == SCRUB_INTERVAL - 1
        ):
            report = self.scrubber.scrub_round()
            card.scrub_mismatches += report.mismatches
            card.backfills += report.backfills
            card.machine_checks += report.machine_checks
        if (
            self.antientropy is not None
            and tick % ANTIENTROPY_INTERVAL == ANTIENTROPY_INTERVAL - 1
        ):
            report = self.antientropy.sync_round()
            card.backfills += report.backfills
        if tick % COMPACT_INTERVAL == COMPACT_INTERVAL - 1:
            replicas = self.store.replicas
            replica = replicas[(tick // COMPACT_INTERVAL) % len(replicas)]
            if replica.available:
                try:
                    replica.compact()
                except (CoreOfflineError, MachineCheckError):
                    pass

    def _monitor(self, tick: int) -> None:
        """Ground-truth divergence watcher (repair-latency clock).

        Pure experimenter instrumentation: compares each replica's
        at-rest bytes against the acked ciphertext without touching any
        core, so it perturbs nothing the store could observe.  A copy
        is divergent when its bytes differ from the acked ciphertext
        *or* when an online replica is missing the key entirely (lost
        WAL tail, post-crash amnesia, a freshly-placed replacement).
        """
        divergent = self._divergent_since
        truth = self._truth_payload
        for replica in self.store.replicas:
            if not replica.available:
                continue
            if not truth.items() <= replica.table.items():
                self._scan_keys(replica, tick)
            elif divergent:
                # Every acked key matches: the per-key scan would only
                # stop this replica's clocks (all of them acked keys).
                replica_id = replica.replica_id
                for entry in [e for e in divergent if e[0] == replica_id]:
                    del divergent[entry]

    def _scan_keys(self, replica: StorageReplica, tick: int) -> None:
        """Start or stop ``replica``'s clock for each acked key."""
        divergent = self._divergent_since
        for key, expected in self._truth_payload.items():
            if replica.table.get(key) != expected:
                divergent.setdefault((replica.replica_id, key), tick)
            elif divergent:  # almost always empty: nothing to clear
                divergent.pop((replica.replica_id, key), None)

    # -- the main loop -------------------------------------------------

    def run(self) -> StorageScorecard:
        for tick in range(self.config.ticks):
            self._tick = tick
            self.begin_tick(tick)
            self._do_writes()
            self._do_reads()
            self._maintenance(tick)
            self._monitor(tick)
            self.end_tick(tick)
        self._finalize()
        return self.scorecard

    def _finalize(self) -> None:
        card = self.scorecard
        card.lasting_divergence = len(self._divergent_since)
        card.physical_bytes = self._retired_physical_bytes + sum(
            replica.stats.physical_bytes for replica in self.store.replicas
        )
        self.finish(self.config.ticks)
        self._audit_recoverability()

    def _audit_recoverability(self) -> None:
        """The end-of-campaign oracle: can each acked key be restored?

        A key is *unrecoverable* when no replica holds bytes that
        decrypt (on the pristine client core) to the value the client
        wrote — the §5.2 incident, where corruption during encryption
        is only discovered at decryption time, after every good copy is
        gone.
        """
        card = self.scorecard
        for key in self._keys:
            truth = self.truth[key]
            recovered = False
            decrypted_cache: dict[bytes, bytes | None] = {}
            for replica in self.store.replicas:
                payload = replica.table.get(key)
                if payload is None:
                    continue
                if payload in decrypted_cache:
                    value = decrypted_cache[payload]
                else:
                    value = self.store._decrypt(self.client_core, payload)
                    decrypted_cache[payload] = value
                if value == truth:
                    recovered = True
                    break
            if not recovered:
                card.unrecoverable_keys += 1


# ---------------------------------------------------------------------
# fleet construction for storage experiments
# ---------------------------------------------------------------------

def build_storage_fleet(
    n_machines: int = 4,
    cores_per_machine: int = 4,
    bad_machine: int = 0,
    bad_core: int = 1,
    base_rate: float = 0.05,
    onset_days: float = 0.0,
    seed: int = 7,
) -> tuple[list[Machine], str]:
    """A small fleet with exactly one (possibly late-onset) bad core.

    The bad core carries *two* paper archetypes at once: a stuck bit on
    the load/store unit (corrupts every byte it moves — WAL appends,
    memtable installs, compaction rewrites, served reads) and the
    self-inverting S-box permutation (mis-encrypts when its turn in the
    coordinator rotation comes up, yet decrypts its own ciphertext
    perfectly — the §5.2 trap that defeats same-core verification).
    Returns (machines, bad core id).
    """
    aging = AgingProfile(onset_days=onset_days)

    def defects_for(core_id: str, index: int) -> tuple[DefectModel, ...]:
        if divmod(index, cores_per_machine) != (bad_machine, bad_core):
            return ()
        return (
            StuckBitDefect(
                f"defect/{core_id}/stuck",
                bit=21,
                base_rate=base_rate,
                unit=FunctionalUnit.LOAD_STORE,
                aging=aging,
            ),
            SboxPermutationDefect(f"defect/{core_id}/sbox", aging=aging),
        )

    machines, bad = build_small_fleet(
        n_machines, cores_per_machine, seed, defects_for
    )
    return machines, bad[0] if bad else ""


__all__ = [
    "STORAGE_EVENT_KINDS",
    "StorageCampaign",
    "StorageCampaignConfig",
    "StorageProtections",
    "StorageScorecard",
    "build_storage_fleet",
]
