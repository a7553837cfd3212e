"""Zero-copy shared-memory snapshots of :class:`FleetColumns`.

The engine's process pool used to hand each worker the whole fleet by
value — at 10^5-10^6 cores that pickle round-trip swamps the work being
fanned out.  A snapshot publishes the fleet's columns once into a
single :class:`multiprocessing.shared_memory.SharedMemory` segment;
what crosses the process boundary per trial is a
:class:`SnapshotHandle` of a few hundred bytes (segment name + field
offset table + the tiny defect sidecar).  Workers attach read-only
views over the same physical pages and materialize no per-core state.

Hand-off protocol:

1. Parent: ``snapshot = publish(columns)`` — one segment named
   ``repro_fleet_<pid>_<counter>``, fields packed at 64-byte-aligned
   offsets in :data:`repro.fleet.columns.SNAPSHOT_FIELDS` order.
2. Parent: pass ``snapshot.handle`` to workers (picklable, tiny).
3. Worker: ``columns = attach(handle)`` — numpy views straight into the
   mapped segment, ``writeable=False``.  A simulator that must mutate
   state calls ``columns.thaw()`` (copies only ``online``/``merc_age``).
4. Parent: ``snapshot.close()`` (idempotent) unmaps and unlinks.  The
   parent owns the segment's lifetime — worker crashes never leak it,
   because the parent's ``finally`` still runs after
   :class:`~repro.engine.runner.WorkerCrashError`.

Attachment never talks to the ``resource_tracker`` (Python 3.13's
``track=False``; on older interpreters the constructor's ``register``
is suppressed): otherwise the first pool worker to exit would unlink
the segment out from under everyone else (bpo-38119).  Registering and
then unregistering is not equivalent — the tracker is one process
shared by the whole pool and keeps names in a set, so two workers'
register/register/unregister/unregister ends in a ``KeyError`` there.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.fleet.columns import SNAPSHOT_FIELDS, FleetColumns
from repro.fleet.product import CpuProduct

#: shared-memory segment name prefix (leak checks scan /dev/shm for it)
SEGMENT_PREFIX = "repro_fleet_"

#: field offsets are aligned to this many bytes
_ALIGN = 64

_segment_counter = 0


@dataclasses.dataclass(frozen=True)
class SnapshotField:
    """One column's location inside the segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclasses.dataclass(frozen=True)
class SnapshotHandle:
    """Everything a worker needs to attach (picklable, ~hundreds of bytes
    plus the mercurial-defect sidecar, which is sized by *defective*
    cores — tens of entries per million cores at paper prevalence)."""

    segment_name: str
    fields: tuple[SnapshotField, ...]
    products: tuple[CpuProduct, ...]
    machine_ids_field: SnapshotField
    #: pickled defect tuples of the mercurial population, so attached
    #: columns never resample and analytic rates match the publisher's
    #: bit for bit
    defect_sidecar: bytes

    @property
    def snapshot_bytes(self) -> int:
        """Total payload size of the published arrays."""
        last = max(
            (*self.fields, self.machine_ids_field),
            key=lambda field: field.offset,
        )
        dtype = np.dtype(last.dtype)
        count = int(np.prod(last.shape, dtype=np.int64)) if last.shape else 1
        return last.offset + dtype.itemsize * count


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _unique_name() -> str:
    global _segment_counter
    _segment_counter += 1
    return f"{SEGMENT_PREFIX}{os.getpid()}_{_segment_counter}"


class FleetSnapshot:
    """A published fleet segment; the parent-side owner of its lifetime."""

    def __init__(self, handle: SnapshotHandle, shm: shared_memory.SharedMemory):
        self.handle = handle
        self._shm: shared_memory.SharedMemory | None = shm

    @property
    def name(self) -> str:
        return self.handle.segment_name

    @property
    def nbytes(self) -> int:
        return self.handle.snapshot_bytes

    def close(self) -> None:
        """Unmap and unlink the segment.  Idempotent: double-close is a
        no-op, so error paths can close unconditionally."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "FleetSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def publish(columns: FleetColumns) -> FleetSnapshot:
    """Copy a fleet's columns into one shared-memory segment.

    The publish itself is the only copy in the whole hand-off; attaching
    is zero-copy.
    """
    arrays: list[tuple[str, np.ndarray]] = [
        (name, np.ascontiguousarray(getattr(columns, name)))
        for name in SNAPSHOT_FIELDS
    ]
    arrays.append(("machine_ids", np.ascontiguousarray(columns.machine_ids)))

    offset = 0
    placed: list[SnapshotField] = []
    for name, array in arrays:
        offset = _align(offset)
        placed.append(
            SnapshotField(name, array.dtype.str, array.shape, offset)
        )
        offset += array.nbytes
    total = max(offset, 1)

    shm = shared_memory.SharedMemory(
        create=True, size=total, name=_unique_name()
    )
    for field, (_name, array) in zip(placed, arrays):
        if array.nbytes == 0:
            continue
        view = np.ndarray(
            array.shape, dtype=array.dtype,
            buffer=shm.buf, offset=field.offset,
        )
        view[...] = array

    sidecar = pickle.dumps(
        [columns.merc_defects(i) for i in range(columns.n_mercurial)],
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    handle = SnapshotHandle(
        segment_name=shm.name,
        fields=tuple(placed[:-1]),
        products=tuple(columns.products),
        machine_ids_field=placed[-1],
        defect_sidecar=sidecar,
    )
    return FleetSnapshot(handle, shm)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without resource-tracker registration (see module doc)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        pass
    # The constructor registers unconditionally; keep the message from
    # being sent rather than undoing it afterwards.
    register = resource_tracker.register
    resource_tracker.register = lambda *_args: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


class AttachedFleet:
    """A worker-side view: read-only columns + the mapping keeping them
    alive.  Close only after the columns (and any ``thaw()`` copies that
    still share immutable columns) are done."""

    def __init__(self, columns: FleetColumns, shm: shared_memory.SharedMemory):
        self.columns = columns
        self._shm: shared_memory.SharedMemory | None = shm

    def close(self) -> None:
        """Unmap this process's view (never unlinks — the parent owns
        the segment).  Idempotent."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        self.columns = None  # type: ignore[assignment]
        shm.close()

    def __enter__(self) -> FleetColumns:
        return self.columns

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def attach(handle: SnapshotHandle) -> AttachedFleet:
    """Map a published snapshot; returns read-only zero-copy columns."""
    shm = _attach_segment(handle.segment_name)

    def view(field: SnapshotField) -> np.ndarray:
        array = np.ndarray(
            field.shape, dtype=np.dtype(field.dtype),
            buffer=shm.buf, offset=field.offset,
        )
        array.flags.writeable = False
        return array

    columns_kwargs = {field.name: view(field) for field in handle.fields}
    columns = FleetColumns(
        products=handle.products,
        machine_ids=view(handle.machine_ids_field),
        _merc_defects=pickle.loads(handle.defect_sidecar),
        **columns_kwargs,
    )
    return AttachedFleet(columns, shm)


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live ``/dev/shm`` segments with our prefix (leak check)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(prefix)
    )


__all__ = [
    "AttachedFleet",
    "FleetSnapshot",
    "SEGMENT_PREFIX",
    "SnapshotField",
    "SnapshotHandle",
    "attach",
    "leaked_segments",
    "publish",
]
