"""B-tree database and replica divergence."""

import numpy as np

from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.workloads.database import (
    BTreeIndex,
    Replica,
    database_workload,
    probe_replica,
)


class TestBTree:
    def test_insert_get_roundtrip(self, healthy_core):
        index = BTreeIndex(healthy_core)
        for key in (5, 1, 9, 3, 7):
            index.insert(key, key * 10)
        for key in (5, 1, 9, 3, 7):
            assert index.get(key) == key * 10

    def test_missing_key_returns_none(self, healthy_core):
        index = BTreeIndex(healthy_core)
        index.insert(1, 10)
        assert index.get(2) is None

    def test_overwrite_updates_value(self, healthy_core):
        index = BTreeIndex(healthy_core)
        index.insert(1, 10)
        index.insert(1, 20)
        assert index.get(1) == 20

    def test_many_keys_force_splits(self, healthy_core, rng):
        index = BTreeIndex(healthy_core)
        keys = [int(k) for k in rng.permutation(500)]
        for key in keys:
            index.insert(key, key + 1)
        assert not index.root.is_leaf  # tree actually grew
        for key in keys:
            assert index.get(key) == key + 1

    def test_items_in_order(self, healthy_core, rng):
        index = BTreeIndex(healthy_core)
        keys = [int(k) for k in rng.permutation(200)]
        for key in keys:
            index.insert(key, 0)
        assert [k for k, _ in index.items()] == sorted(keys)

    def test_order_invariant_on_healthy_tree(self, healthy_core, rng):
        index = BTreeIndex(healthy_core)
        for key in rng.permutation(300):
            index.insert(int(key), 0)
        assert index.check_order_invariant()


class TestReplica:
    def test_record_embeds_key(self, healthy_core):
        replica = Replica(healthy_core)
        replica.insert(42, payload=(42, 1))
        record = replica.get(42)
        assert record is not None and record.key == 42

    def test_probe_clean_on_healthy(self, healthy_core, rng):
        replica = Replica(healthy_core)
        keys = [int(k) for k in rng.integers(0, 2**30, 200)]
        for key in keys:
            replica.insert(key, (key,))
        stats = probe_replica(replica, keys[::2])
        assert stats.error_fraction == 0.0


class TestReplicaDivergence:
    def test_queries_depend_on_serving_replica(self, rng):
        """§2: corruption 'depending on which replica (core) serves
        them' — the defective replica has errors, the healthy do not."""
        bad = Core(
            "db/bad", defects=named_case("comparator_flip"),
            rng=np.random.default_rng(0),
        )
        replicas = [
            Replica(Core("db/r0", rng=np.random.default_rng(1))),
            Replica(bad),
            Replica(Core("db/r2", rng=np.random.default_rng(2))),
        ]
        keys = [int(k) for k in rng.integers(0, 2**40, 400)]
        for key in keys:
            for replica in replicas:
                replica.insert(key, (key,))
        probes = keys[::2]
        errors = [
            probe_replica(replicas[i], probes).error_fraction
            for i in range(3)
        ]
        assert errors[0] == 0.0 and errors[2] == 0.0
        assert errors[1] > 0.0


class TestDatabaseWorkload:
    def test_healthy_clean(self, healthy_core, rng):
        keys = [int(k) for k in rng.integers(0, 2**30, 100)]
        result = database_workload(healthy_core, keys, keys[::3])
        assert not result.app_detected

    def test_defective_comparator_detected(self, rng):
        core = Core(
            "db/wl", defects=named_case("comparator_flip"),
            rng=np.random.default_rng(4),
        )
        keys = [int(k) for k in rng.integers(0, 2**40, 200)]
        result = database_workload(core, keys, keys)
        assert result.app_detected
