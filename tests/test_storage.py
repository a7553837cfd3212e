"""Unit tests for the durable-path stack: WAL, replica, store, repair."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventKind
from repro.silicon.core import Core
from repro.silicon.defects import SboxPermutationDefect, StuckBitDefect
from repro.silicon.errors import CoreOfflineError
from repro.silicon.units import FunctionalUnit
from repro.storage import (
    AntiEntropy,
    ReplicatedKVStore,
    Scrubber,
    StorageReplica,
    StoreConfig,
    WriteAheadLog,
    build_merkle_tree,
    host_crc64,
)
from repro.storage.wal import WalRecord

VALUE = bytes(range(16))
OTHER = bytes(range(16, 32))


def healthy_core(core_id="t/c00", seed=0):
    return Core(core_id, rng=np.random.default_rng(seed))


def stuck_core(core_id="t/cbad", seed=0):
    defect = StuckBitDefect(
        "d0", bit=7, base_rate=1.0, unit=FunctionalUnit.LOAD_STORE
    )
    return Core(core_id, defects=(defect,), rng=np.random.default_rng(seed))


def sbox_core(core_id="t/csbox", seed=0):
    # Swap every S-box entry with its neighbour: any encryption on this
    # core miscomputes, yet its own decryption inverts it perfectly.
    defect = SboxPermutationDefect(
        "d1", swaps=tuple((i, i + 1) for i in range(0, 256, 2))
    )
    return Core(core_id, defects=(defect,), rng=np.random.default_rng(seed))


def make_wal(core=None, verify=True):
    wal = WriteAheadLog(core or healthy_core(), verify_on_replay=verify)
    for seqno, (key, value) in enumerate(
        [("a", VALUE), ("b", OTHER), ("c", VALUE)]
    ):
        wal.append(seqno, key, value, host_crc64(value))
    return wal


class TestWriteAheadLog:
    def test_clean_replay_round_trips(self):
        table, report = make_wal().replay()
        assert report.clean
        assert report.applied == 3
        assert table["a"] == (VALUE, host_crc64(VALUE))
        assert table["b"] == (OTHER, host_crc64(OTHER))

    def test_verified_replay_truncates_at_first_corrupt_record(self):
        wal = make_wal()
        bad = wal.records[1]
        wal.records[1] = WalRecord(bad.seqno, bad.key, b"\x00" * 16, bad.crc)
        table, report = wal.replay()
        # Better a bounded, known loss than silently applied corruption:
        # the good record *behind* the corrupt one is sacrificed too.
        assert report.corrupt_records == [1]
        assert report.truncated_from == 1
        assert sorted(table) == ["a"]
        assert len(wal) == 1
        assert wal.records_truncated == 2

    def test_unverified_replay_applies_corruption_blindly(self):
        wal = make_wal(verify=False)
        bad = wal.records[1]
        wal.records[1] = WalRecord(bad.seqno, bad.key, b"\x00" * 16, bad.crc)
        table, report = wal.replay()
        assert report.corrupt_records == [1]       # ground truth only
        assert report.truncated_from is None
        assert table["b"] == (b"\x00" * 16, bad.crc)   # poisoned memtable

    def test_torn_tail_truncates_only_the_last_record(self):
        wal = make_wal()
        assert wal.tear_tail()
        assert not wal.records[-1].intact
        table, report = wal.replay()
        assert report.truncated_from == 2
        assert sorted(table) == ["a", "b"]

    def test_defective_core_corrupts_the_landed_frame(self):
        wal = WriteAheadLog(stuck_core())
        record = wal.append(0, "a", VALUE, host_crc64(VALUE))
        assert record.value != VALUE
        assert not record.intact


class TestStorageReplica:
    def test_crash_recover_replays_the_wal(self):
        replica = StorageReplica("store/0", healthy_core())
        replica.put(0, "a", VALUE, host_crc64(VALUE))
        replica.put(1, "b", OTHER, host_crc64(OTHER))
        report = replica.crash_recover()
        assert report is not None and report.clean
        assert replica.table == {"a": VALUE, "b": OTHER}

    def test_crash_without_wal_loses_everything(self):
        replica = StorageReplica("store/0", healthy_core(), use_wal=False)
        replica.put(0, "a", VALUE, host_crc64(VALUE))
        assert replica.crash_recover() is None
        assert replica.table == {}

    def test_offline_core_raises(self):
        replica = StorageReplica("store/0", healthy_core())
        replica.core.set_online(False)
        with pytest.raises(CoreOfflineError):
            replica.put(0, "a", VALUE, host_crc64(VALUE))


def make_store(config=None, events=None, coordinators=None):
    replicas = [
        StorageReplica(f"store/{i}", healthy_core(f"t/c{i:02d}", seed=i))
        for i in range(3)
    ]
    emit = None
    if events is not None:
        emit = lambda core_id, kind, detail: events.append((core_id, kind))
    store = ReplicatedKVStore(
        replicas,
        coordinator_cores=coordinators or [r.core for r in replicas],
        trusted_core=healthy_core("client/c00", seed=99),
        config=config or StoreConfig(),
        emit=emit,
    )
    return store, replicas


def _lose(replica, key):
    """The replica no longer holds ``key``: record and checksum gone."""
    del replica.table[key]
    del replica.meta_crc[key]


class TestStoreConfig:
    @pytest.mark.parametrize("key", [b"", bytes(15), bytes(32)])
    def test_a_key_that_is_not_aes_128_is_refused_at_construction(self, key):
        # not at the campaign's first put
        with pytest.raises(ValueError, match="key must be 16 bytes"):
            StoreConfig(key=key)


class TestReplicatedKVStore:
    def test_put_get_round_trips_through_encryption(self):
        store, replicas = make_store()
        assert store.put("a", VALUE).ok
        result = store.get("a")
        assert result.ok and result.value == VALUE
        # What the replicas hold is ciphertext, never the plaintext.
        assert all(r.table["a"] != VALUE for r in replicas)

    def test_voted_read_rejects_frame_crc_failures(self):
        events = []
        store, replicas = make_store(events=events)
        store.put("a", VALUE)
        replicas[0].table["a"] = b"\xff" * 16        # rot; stale frame CRC
        result = store.get("a")
        assert result.ok and result.value == VALUE
        assert result.corrupt_rejected == 1
        assert (replicas[0].core_id, EventKind.QUORUM_MISMATCH) in events

    def test_voted_read_repairs_divergent_minority(self):
        events = []
        store, replicas = make_store(events=events)
        store.put("a", VALUE)
        majority = replicas[1].table["a"]
        # A well-formed wrong answer: bytes differ but the frame CRC is
        # consistent, so only the vote can catch it.
        forged = b"\x5a" * 16
        replicas[0].table["a"] = forged
        replicas[0].meta_crc["a"] = host_crc64(forged)
        result = store.get("a")
        assert result.ok and result.value == VALUE
        assert result.quorum_mismatches == 1
        assert replicas[0].replica_id in result.repaired_replicas
        assert replicas[0].table["a"] == majority
        assert (replicas[0].core_id, EventKind.QUORUM_MISMATCH) in events

    def test_voted_read_backfills_missing_replica(self):
        store, replicas = make_store()
        store.put("a", VALUE)
        _lose(replicas[2], "a")
        result = store.get("a")
        assert result.ok
        assert replicas[2].replica_id in result.repaired_replicas
        assert replicas[2].table["a"] == replicas[0].table["a"]

    def test_unprotected_read_serves_corruption_silently(self):
        store, replicas = make_store(config=StoreConfig.unprotected())
        store.put("a", VALUE)
        for replica in replicas:                      # rot every copy
            replica.table["a"] = b"\xff" * 16
        result = store.get("a")
        assert result.ok                              # no error, wrong bytes
        assert result.value != VALUE

    def test_encrypt_verify_blames_the_miscomputing_encryptor(self):
        events = []
        bad = sbox_core()
        goods = [healthy_core(f"t/c{i:02d}", seed=i) for i in range(3)]
        store, _ = make_store(events=events, coordinators=[bad] + goods)
        result = store.put("a", VALUE)
        # First attempt encrypts on the S-box core; the second-core
        # decrypt disagrees, the arbiter confirms the ciphertext is bad,
        # and the retry lands on a healthy encryptor.
        assert result.ok
        assert result.encrypt_verify_failures >= 1
        assert result.encrypt_attempts >= 2
        assert (bad.core_id, EventKind.ENCRYPT_VERIFY_FAIL) in events
        read = store.get("a")
        assert read.ok and read.value == VALUE

    def test_encrypt_verify_blames_the_miscomputing_verifier(self):
        events = []
        bad = sbox_core()
        goods = [healthy_core(f"t/c{i:02d}", seed=i) for i in range(2)]
        store, _ = make_store(
            events=events, coordinators=[goods[0], bad, goods[1]]
        )
        result = store.put("a", VALUE)
        # The ciphertext is fine; the S-box core's verify decrypt is the
        # divergence.  Arbitration sides with the encryptor, the write
        # is acked on the first attempt, and the blame lands on the
        # verifier core.
        assert result.ok
        assert result.encrypt_attempts == 1
        assert result.encrypt_verify_failures == 1
        assert (bad.core_id, EventKind.ENCRYPT_VERIFY_FAIL) in events
        read = store.get("a")
        assert read.ok and read.value == VALUE

    def test_unverified_sbox_encryption_is_unrecoverable_elsewhere(self):
        # The §5.2 trap, distilled: the S-box core's own decrypt is the
        # identity, so same-core verification would pass — but no other
        # core can ever recover the plaintext.
        bad = sbox_core()
        config = StoreConfig(encrypt_verify=False)
        store, _ = make_store(config=config, coordinators=[bad])
        store.put("a", VALUE)
        read = store.get("a")                 # decrypts on the trusted core
        assert read.value != VALUE
        round_keys_ct = store._ecb(bad, store.replicas[0].table["a"], False)
        assert round_keys_ct == VALUE         # the defective core: identity


class TestScrubber:
    def test_scrub_catches_at_rest_rot_and_repairs_it(self):
        events = []
        store, replicas = make_store(events=events)
        store.put("a", VALUE)
        good = replicas[1].table["a"]
        replicas[0].table["a"] = b"\xff" * 16
        report = Scrubber(store).scrub_round()
        assert report.mismatches == 1
        assert report.repairs == 1
        assert replicas[0].table["a"] == good
        assert (replicas[0].core_id, EventKind.SCRUB_MISMATCH) in events

    def test_scrub_backfills_missing_keys(self):
        store, replicas = make_store()
        store.put("a", VALUE)
        _lose(replicas[2], "a")
        report = Scrubber(store).scrub_round()
        assert report.backfills == 1
        assert replicas[2].table["a"] == replicas[0].table["a"]

    def test_scrub_window_rotates_through_the_key_space(self):
        store, _ = make_store()
        for i in range(6):
            store.put(f"k{i}", VALUE)
        scrubber = Scrubber(store, keys_per_round=2)
        for _ in range(3):
            assert scrubber.scrub_round().keys_scrubbed == 2
        assert scrubber.rounds == 3


class TestAntiEntropy:
    def test_identical_replicas_take_the_root_fast_path(self):
        store, _ = make_store()
        store.put("a", VALUE)
        store.put("b", OTHER)
        report = AntiEntropy(store).sync_round()
        assert report.root_match
        assert report.keys_compared == 0

    def test_divergence_is_found_repaired_and_flagged(self):
        events = []
        store, replicas = make_store(events=events)
        for i in range(8):
            store.put(f"k{i}", VALUE)
        good = replicas[1].table["k3"]
        replicas[0].table["k3"] = b"\xff" * 16
        sync = AntiEntropy(store)
        report = sync.sync_round()
        assert not report.root_match
        assert report.divergent_buckets == 1
        assert report.keys_repaired == 1
        assert replicas[0].table["k3"] == good
        assert (replicas[0].core_id, EventKind.SCRUB_MISMATCH) in events
        assert sync.sync_round().root_match           # converged

    def test_corrupt_copies_cannot_outvote_a_crc_valid_one(self):
        store, replicas = make_store()
        store.put("a", VALUE)
        good = replicas[2].table["a"]
        # Two replicas agree on the same wrong bytes, but their frame
        # CRCs are stale: the single intact copy wins the vote.
        for replica in replicas[:2]:
            replica.table["a"] = b"\xff" * 16
        report = AntiEntropy(store).sync_round()
        assert report.keys_repaired == 2
        assert all(r.table["a"] == good for r in replicas)

    def test_missing_keys_are_backfilled(self):
        store, replicas = make_store()
        store.put("a", VALUE)
        _lose(replicas[1], "a")
        report = AntiEntropy(store).sync_round()
        assert report.backfills == 1
        assert replicas[1].table["a"] == replicas[0].table["a"]

    @pytest.mark.parametrize("divergent", [1, 6])
    def test_sync_round_places_each_key_once_however_many_buckets_diverge(
        self, divergent, monkeypatch
    ):
        from repro.storage import antientropy

        store, replicas = make_store()
        keys = [f"k{i:02d}" for i in range(24)]
        for key in keys:
            store.put(key, VALUE)
        by_bucket = {}
        for key in keys:
            by_bucket.setdefault(antientropy.bucket_of(key, 16), key)
        assert len(by_bucket) >= 6
        for key in list(by_bucket.values())[:divergent]:
            replicas[0].table[key] = b"\xff" * 16
        calls = []
        bucket_of = antientropy.bucket_of
        monkeypatch.setattr(
            antientropy, "bucket_of",
            lambda key, n: calls.append(key) or bucket_of(key, n),
        )
        report = AntiEntropy(store).sync_round()
        assert report.divergent_buckets == report.keys_repaired == divergent
        # once per replica for its tree, once more for the round's grouping
        assert len(calls) == (len(replicas) + 1) * len(keys)

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.dictionaries(st.sampled_from("abcdef"), st.sampled_from((VALUE, OTHER))),
        edits=st.lists(
            st.dictionaries(
                st.sampled_from("abcdefg"), st.sampled_from((None, VALUE, OTHER)),
                max_size=2,
            ),
            min_size=3, max_size=3,
        ),
    )
    def test_root_match_is_what_the_trees_say(self, base, edits):
        """Generated replica tables (a key dropped, rewritten or added per
        replica): a round reports ``root_match`` exactly when every
        table's Merkle root agrees, and then touches nothing."""
        store, replicas = make_store()
        for replica, edit in zip(replicas, edits):
            for key, value in {**base, **edit}.items():
                if value is not None:
                    replica.repair(key, value, host_crc64(value))
        tables = [dict(r.table) for r in replicas]
        match = len({build_merkle_tree(t).root for t in tables}) == 1
        report = AntiEntropy(store).sync_round()
        assert report.root_match == match
        if match:
            assert [r.table for r in replicas] == tables
            assert report.keys_compared == 0

    def test_merkle_tree_is_deterministic_and_value_sensitive(self):
        table = {"a": VALUE, "b": OTHER}
        tree = build_merkle_tree(table)
        assert build_merkle_tree(dict(reversed(table.items()))) == tree
        assert build_merkle_tree({"a": VALUE, "b": VALUE}).root != tree.root
