"""Struct-of-arrays fleet state: the columnar substrate.

The paper's argument is statistical — mercurial cores are a
few-per-several-thousand phenomenon — so every conclusion sharpens with
fleet size.  Per-object fleets top out well below the O(10^5-10^6)
cores that SiliFuzz and the Facebook SDC paper operate at: building a
``Core`` instance per hardware thread costs a Python allocation, a
dict/slots layout and a GC header each, and shipping such a fleet to a
worker process costs a full pickle round-trip.

:class:`FleetColumns` stores the same fleet as a handful of numpy
arrays — machine columns, per-core columns, and dense per-mercurial
columns (the mercurial population is tiny, so everything a defect model
needs lives in arrays sized by *defective* cores, not total cores).
A generated fleet never leaves this form: the simulator, the screeners
and the scheduler all run on the columns, and ``Machine``/``Core``
objects exist only in the small campaign fleets whose cores execute
real operations (:mod:`repro.campaign`).

Memory layout (1M cores ≈ 7 MB, vs ≈ 1 GB of ``Core`` objects):

=====================  =========  ===========================================
column                 dtype      meaning
=====================  =========  ===========================================
machine_product        int16      SKU index into ``products`` (per machine)
machine_deploy_day     float64    fleet day the machine entered service
machine_core_start     int64      prefix offsets: machine m owns flat core
                                  indices ``[start[m], start[m+1])``
core_machine           int32      owning machine index (per core)
mercurial              bool       ground truth: core carries defects
online                 bool       schedulable (False = quarantined/drained)
merc_core              int64      flat core index of each mercurial core
merc_onset             float64    earliest defect onset age (days)
merc_defect_mode       int16      archetype code of the primary defect
merc_age               float64    current core age in days
merc_sample_seed       uint64     seed that regenerates the defect set
=====================  =========  ===========================================

Everything above is a flat buffer, so a fleet costs a forked worker
nothing to inherit: :func:`repro.engine.run_fleet_trials` forks its
workers from the caller, which read the arrays copy-on-write and
materialize no per-core objects at all.  A read-only view of a
:mod:`multiprocessing.shared_memory` snapshot is also a fleet (see
:mod:`repro.fleet.shm`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fleet.product import CpuProduct
from repro.silicon.catalog import sample_core_defects

if TYPE_CHECKING:
    from repro.fleet.population import FleetGroundTruth
    from repro.silicon.defects import DefectModel

#: defect archetype → ``merc_defect_mode`` code (0 = unknown/other).
DEFECT_MODE_CODES: dict[str, int] = {
    "StuckBitDefect": 1,
    "SboxPermutationDefect": 2,
    "OperandPatternDefect": 3,
    "SharedLogicDefect": 4,
    "AtomicsDefect": 5,
    "MachineCheckDefect": 6,
}

#: the array fields serialized into a shared-memory snapshot, in a
#: stable order (the snapshot hand-off protocol depends on it)
SNAPSHOT_FIELDS: tuple[str, ...] = (
    "machine_product",
    "machine_deploy_day",
    "machine_core_start",
    "core_machine",
    "mercurial",
    "online",
    "merc_core",
    "merc_onset",
    "merc_defect_mode",
    "merc_age",
    "merc_sample_seed",
)


def defect_mode_code(defects: Sequence["DefectModel"]) -> int:
    """Archetype code of a core's primary (first-sampled) defect."""
    if not defects:
        return 0
    return DEFECT_MODE_CODES.get(type(defects[0]).__name__, 0)


@dataclasses.dataclass
class FleetColumns:
    """A whole fleet as struct-of-arrays (see module docstring).

    Instances come from :meth:`repro.fleet.population.FleetBuilder.build_columns`
    (seeded synthesis) or :func:`repro.fleet.shm.attach` (zero-copy
    view of a shared-memory snapshot; arrays arrive read-only).
    """

    products: tuple[CpuProduct, ...]
    machine_product: np.ndarray
    machine_deploy_day: np.ndarray
    machine_core_start: np.ndarray
    core_machine: np.ndarray
    mercurial: np.ndarray
    online: np.ndarray
    merc_core: np.ndarray
    merc_onset: np.ndarray
    merc_defect_mode: np.ndarray
    merc_age: np.ndarray
    merc_sample_seed: np.ndarray
    #: machine ids; ``m%05d`` unless the fleet was given its own
    machine_ids: np.ndarray = dataclasses.field(default=None)  # type: ignore[assignment]
    #: defect models per mercurial core: the builder's samples, or the
    #: handle sidecar's on snapshot-attached fleets.  ``None`` entries
    #: mean "not materialized yet" (regenerated from ``merc_sample_seed``)
    _merc_defects: list | None = dataclasses.field(default=None, repr=False)
    #: lazily built id → index maps and the ``str`` id list.  A field,
    #: so ``thaw()`` hands the same dict to the copy: the ids are shared
    #: and immutable, and whichever copy needs one first builds it for all
    _index_maps: dict = dataclasses.field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.machine_ids is None:
            self.machine_ids = np.array(
                [f"m{index:05d}" for index in range(self.n_machines)]
            )

    # -- shape ----------------------------------------------------------

    @property
    def n_machines(self) -> int:
        return int(self.machine_product.shape[0])

    @property
    def n_cores(self) -> int:
        return int(self.core_machine.shape[0])

    @property
    def n_mercurial(self) -> int:
        return int(self.merc_core.shape[0])

    @property
    def cores_per_machine(self) -> np.ndarray:
        """Per-machine core counts (derived from the prefix offsets)."""
        return np.diff(self.machine_core_start)

    @property
    def nbytes(self) -> int:
        """Total array payload (what a snapshot costs)."""
        return sum(
            int(getattr(self, name).nbytes) for name in SNAPSHOT_FIELDS
        ) + int(self.machine_ids.nbytes)

    # -- identity -------------------------------------------------------

    def machine_id(self, machine_index: int) -> str:
        return str(self.machine_ids[machine_index])

    def core_id(self, flat_index: int) -> str:
        """Stable core id for a flat core index."""
        machine = int(self.core_machine[flat_index])
        within = flat_index - int(self.machine_core_start[machine])
        return f"{self.machine_ids[machine]}/c{within:02d}"

    def core_index(self, core_id: str) -> int | None:
        """Flat index for a core id; ``None`` if the id is unknown."""
        machine_part, _, core_part = core_id.rpartition("/c")
        if not machine_part:
            return None
        machine = self._machine_index_map().get(machine_part)
        if machine is None:
            return None
        try:
            within = int(core_part)
        except ValueError:
            return None
        start = int(self.machine_core_start[machine])
        if not 0 <= within < int(self.machine_core_start[machine + 1]) - start:
            return None
        return start + within

    def machine_id_list(self) -> list[str]:
        """The machine ids as ``str``, by machine index; built once and
        shared like the index maps.  Callers must not mutate it."""
        cached = self._index_maps.get("machine_ids")
        if cached is None:
            cached = self._index_maps["machine_ids"] = [
                str(machine_id) for machine_id in self.machine_ids.tolist()
            ]
        return cached

    def _machine_index_map(self) -> dict[str, int]:
        cached = self._index_maps.get("machine")
        if cached is None:
            cached = self._index_maps["machine"] = {
                machine_id: index
                for index, machine_id in enumerate(self.machine_id_list())
            }
        return cached

    def machine_core_range(self, machine_index: int) -> tuple[int, int]:
        """Flat index range ``[start, stop)`` of one machine's cores."""
        return (
            int(self.machine_core_start[machine_index]),
            int(self.machine_core_start[machine_index + 1]),
        )

    # -- mercurial population -------------------------------------------

    def merc_defects(self, merc_index: int) -> tuple:
        """Defect models of one mercurial core, regenerated on demand
        (builder fleets resample from ``merc_sample_seed``)."""
        if self._merc_defects is None:
            self._merc_defects = [None] * self.n_mercurial
        cached = self._merc_defects[merc_index]
        if cached is None:
            flat = int(self.merc_core[merc_index])
            product = self.products[
                int(self.machine_product[int(self.core_machine[flat])])
            ]
            cached = tuple(
                sample_core_defects(
                    np.random.default_rng(int(self.merc_sample_seed[merc_index])),
                    self.core_id(flat),
                    onset=product.onset,
                )
            )
            self._merc_defects[merc_index] = cached
        return cached

    def ground_truth(self) -> "FleetGroundTruth":
        """What the detectors must discover, derived from the columns."""
        from repro.fleet.population import FleetGroundTruth

        mercurial_ids = {
            self.core_id(int(flat)) for flat in self.merc_core
        }
        onsets = {
            self.core_id(int(flat)): float(self.merc_onset[index])
            for index, flat in enumerate(self.merc_core)
        }
        return FleetGroundTruth(mercurial_ids, onsets)

    def ground_truth_map(self) -> dict[str, bool]:
        """core id → is mercurial, for every core (detector scoring)."""
        flags = self.mercurial
        return {
            self.core_id(flat): bool(flags[flat])
            for flat in range(self.n_cores)
        }

    # -- mutability -----------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True when the arrays are snapshot views (not writable)."""
        return not self.online.flags.writeable

    def thaw(self) -> "FleetColumns":
        """A copy whose mutable-state arrays are private and writable.

        Snapshot-attached columns are read-only by contract; a simulator
        that needs to quarantine cores or age the mercurial population
        calls this to copy just the columns it mutates (``online``,
        ``merc_age`` — a megabyte at 1M cores) while the heavy immutable
        columns stay zero-copy views of the shared segment.
        """
        return dataclasses.replace(
            self,
            online=self.online.copy(),
            merc_age=self.merc_age.copy(),
        )


__all__ = [
    "DEFECT_MODE_CODES",
    "FleetColumns",
    "SNAPSHOT_FIELDS",
    "defect_mode_code",
]
