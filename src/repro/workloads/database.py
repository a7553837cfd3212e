"""A B-tree–indexed mini-database with per-replica query serving.

Reproduces the §2 anecdote: "Database index corruption leading to some
queries, depending on which replica (core) serves them, being
non-deterministically corrupted."  Each replica builds and probes its
index *on its own core*; a mercurial replica core corrupts only the
queries it serves, so the same logical query succeeds or fails
depending on replica choice.

The B-tree is a real order-``ORDER`` B-tree (split-on-full inserts);
every key comparison during descent and every separator comparison
during splits runs on the core's comparator.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.silicon.units import Op
from repro.workloads.base import CoreLike, WorkloadResult, digest_ints, on_host

ORDER = 8  # max keys per node


@dataclasses.dataclass
class _Node:
    keys: list[int] = dataclasses.field(default_factory=list)
    values: list[int] = dataclasses.field(default_factory=list)  # leaf payload slots
    children: list["_Node"] = dataclasses.field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


_INDEX_OPS = frozenset({Op.BLT, Op.BEQ})


def _less(core: CoreLike, a: int, b: int) -> bool:
    return core.execute(Op.BLT, a, b) == 1


def _equal(core: CoreLike, a: int, b: int) -> bool:
    return core.execute(Op.BEQ, a, b) == 1


def _position(core: CoreLike, node: _Node, key: int) -> int:
    index = 0
    while index < len(node.keys) and _less(core, node.keys[index], key):
        index += 1
    return index


class BTreeIndex:
    """Key → record-slot index; all comparisons through the core."""

    def __init__(self, core: CoreLike):
        self.core = core
        self.root = _Node()
        self.size = 0

    def insert(self, key: int, slot: int) -> None:
        """Insert or overwrite ``key`` pointing at record ``slot``."""
        on_host(self.core, _INDEX_OPS, self._insert, key, slot)

    def _insert(self, core: CoreLike, key: int, slot: int) -> None:
        root = self.root
        if len(root.keys) >= ORDER:
            new_root = _Node(children=[root])
            self._split_child(new_root, 0)
            self.root = new_root
        self._insert_nonfull(core, self.root, key, slot)

    def _split_child(self, parent: _Node, index: int) -> None:
        # Classic B-tree split with data in all nodes: keys and values
        # stay parallel on both leaf and internal nodes, and the median
        # (key, value) pair migrates up into the parent.
        child = parent.children[index]
        middle = len(child.keys) // 2
        separator = child.keys[middle]
        sep_value = child.values[middle]
        right = _Node(
            keys=child.keys[middle + 1:],
            values=child.values[middle + 1:],
            children=child.children[middle + 1:] if child.children else [],
        )
        child.keys = child.keys[:middle]
        child.values = child.values[:middle]
        if child.children:
            child.children = child.children[:middle + 1]
        parent.keys.insert(index, separator)
        parent.values.insert(index, sep_value)
        parent.children.insert(index + 1, right)

    def _insert_nonfull(
        self, core: CoreLike, node: _Node, key: int, slot: int
    ) -> None:
        index = _position(core, node, key)
        if index < len(node.keys) and _equal(core, node.keys[index], key):
            node.values[index] = slot
            return
        if node.is_leaf:
            node.keys.insert(index, key)
            node.values.insert(index, slot)
            self.size += 1
            return
        child = node.children[index]
        if len(child.keys) >= ORDER:
            self._split_child(node, index)
            if _less(core, node.keys[index], key):
                index += 1
            elif _equal(core, node.keys[index], key):
                node.values[index] = slot
                return
        self._insert_nonfull(core, node.children[index], key, slot)

    def get(self, key: int) -> int | None:
        """Record slot for ``key``, or None if (apparently) absent."""
        return on_host(self.core, _INDEX_OPS, self._get, key)

    def _get(self, core: CoreLike, key: int) -> int | None:
        node = self.root
        while True:
            index = _position(core, node, key)
            if index < len(node.keys) and _equal(core, node.keys[index], key):
                return node.values[index]
            if node.is_leaf:
                return None
            node = node.children[index]

    def items(self) -> Iterator[tuple[int, int]]:
        """In-order (key, slot) traversal — host-side, for invariants."""
        def walk(node: _Node) -> Iterator[tuple[int, int]]:
            if node.is_leaf:
                yield from zip(node.keys, node.values)
                return
            for index, (key, value) in enumerate(zip(node.keys, node.values)):
                yield from walk(node.children[index])
                yield (key, value)
            yield from walk(node.children[len(node.keys)])

        yield from walk(self.root)

    def check_order_invariant(self) -> bool:
        """Host-side structural check: in-order keys strictly ascend.

        This is the §7-style invariant one would compute "over a
        database record to check for its corruption before committing".
        """
        previous = None
        for key, _ in self.items():
            if previous is not None and key <= previous:
                return False
            previous = key
        return True


@dataclasses.dataclass
class Record:
    """One stored row; the embedded key doubles as a self-check."""

    key: int
    payload: tuple[int, ...]


class Replica:
    """One replica: the same logical table served by one core."""

    def __init__(self, core: CoreLike):
        self.core = core
        self.heap: list[Record] = []
        self.index = BTreeIndex(core)

    def insert(self, key: int, payload: tuple[int, ...]) -> None:
        """Append a record and index it on this replica's core."""
        slot = len(self.heap)
        # The stored record embeds its key: the natural self-check.
        self.heap.append(Record(key=key, payload=payload))
        self.index.insert(key, slot)

    def get(self, key: int) -> Record | None:
        """Serve one point query through this replica's index."""
        slot = self.index.get(key)
        if slot is None or not 0 <= slot < len(self.heap):
            return None
        return self.heap[slot]


@dataclasses.dataclass(frozen=True)
class QueryStats:
    """Probe outcome counts for one replica."""

    total: int
    wrong: int          # record found but key mismatch (detected)
    missing: int        # key known present but not found (detected)

    @property
    def error_fraction(self) -> float:
        return (self.wrong + self.missing) / self.total if self.total else 0.0


def probe_replica(
    replica: Replica, keys: list[int]
) -> QueryStats:
    """Query known-present keys and classify outcomes."""
    wrong = missing = 0
    for key in keys:
        record = replica.get(key)
        if record is None:
            missing += 1
        elif record.key != key:
            wrong += 1
    return QueryStats(total=len(keys), wrong=wrong, missing=missing)


def database_workload(
    core: CoreLike, keys: list[int], probes: list[int]
) -> WorkloadResult:
    """Build a single-replica table and serve probes on one core."""
    replica = Replica(core)
    for key in keys:
        replica.insert(key, payload=(key, key ^ 0xDEAD))
    stats = probe_replica(replica, probes)
    ordered = replica.index.check_order_invariant()
    return WorkloadResult(
        name="database",
        output_digest=digest_ints(
            [record.key for record in replica.heap]
            + [stats.wrong, stats.missing]
        ),
        app_detected=stats.error_fraction > 0 or not ordered,
        detail=f"wrong={stats.wrong} missing={stats.missing} ordered={ordered}",
        units=len(probes),
    )
