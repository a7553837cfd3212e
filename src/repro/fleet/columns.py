"""Struct-of-arrays fleet state: the columnar substrate.

The paper's argument is statistical — mercurial cores are a
few-per-several-thousand phenomenon — so every conclusion sharpens with
fleet size.  Per-object fleets top out well below the O(10^5-10^6)
cores that SiliFuzz and the Facebook SDC paper operate at: building a
``Core`` instance per hardware thread costs a Python allocation, a
dict/slots layout and a GC header each, and shipping such a fleet to a
pool worker costs a full pickle round-trip.

:class:`FleetColumns` stores the same fleet as a handful of numpy
arrays — machine columns, per-core columns, and dense per-mercurial
columns (the mercurial population is tiny, so everything a defect model
needs lives in arrays sized by *defective* cores, not total cores).
``to_machines()`` materializes the fleet as ``Machine``/``Core``
objects for the consumers that execute real operations on it (it is
what :meth:`repro.fleet.population.FleetBuilder.build` returns), and
:meth:`from_machines` goes the other way.

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
merc_core_seed         uint64     seed of the core's own defect RNG
=====================  =========  ===========================================

Everything above is a flat buffer, so a fleet can be handed to pool
workers as a zero-copy :mod:`multiprocessing.shared_memory` snapshot
(see :mod:`repro.fleet.shm`) — workers attach read-only and materialize
no per-core objects at all.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fleet.product import CpuProduct
from repro.silicon.catalog import sample_core_defects
from repro.silicon.core import Chip, Core
from repro.silicon.environment import NOMINAL, OperatingPoint

if TYPE_CHECKING:
    from repro.fleet.machine import Machine
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
    "merc_core_seed",
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
    (seeded synthesis), :meth:`from_machines` (adapting an object
    fleet), or :func:`repro.fleet.shm.attach` (zero-copy view of a
    shared-memory snapshot; arrays arrive read-only).
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
    merc_core_seed: np.ndarray
    #: machine ids; generated fleets use ``m%05d`` but adapted object
    #: fleets keep whatever ids they had
    machine_ids: np.ndarray = dataclasses.field(default=None)  # type: ignore[assignment]
    #: defect models per mercurial core.  Builder fleets regenerate them
    #: lazily from ``merc_sample_seed``; adapted fleets carry the actual
    #: object tuples; snapshot-attached fleets get them from the handle
    #: sidecar.  ``None`` entries mean "not materialized yet".
    _merc_defects: list | None = dataclasses.field(default=None, repr=False)
    #: per-mercurial operating points (NOMINAL unless adapted from
    #: objects that were moved off the nominal point)
    _merc_env: list | None = dataclasses.field(default=None, repr=False)
    #: explicit per-core id strings, only when the fleet does not follow
    #: the generated ``<machine>/cNN`` pattern
    _core_ids: list | None = dataclasses.field(default=None, repr=False)
    #: lazily built id → index maps.  A field, so ``thaw()`` hands the
    #: same dict to the copy: the ids the maps index are shared and
    #: immutable, and whichever copy needs a map first builds it for all
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
        if self._core_ids is not None:
            return self._core_ids[flat_index]
        machine = int(self.core_machine[flat_index])
        within = flat_index - int(self.machine_core_start[machine])
        return f"{self.machine_ids[machine]}/c{within:02d}"

    def core_index(self, core_id: str) -> int | None:
        """Flat index for a core id; ``None`` if the id is unknown."""
        if self._core_ids is not None:
            return self._explicit_core_index_map().get(core_id)
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

    def _machine_index_map(self) -> dict[str, int]:
        cached = self._index_maps.get("machine")
        if cached is None:
            cached = self._index_maps["machine"] = {
                str(machine_id): index
                for index, machine_id in enumerate(self.machine_ids.tolist())
            }
        return cached

    def _explicit_core_index_map(self) -> dict[str, int]:
        cached = self._index_maps.get("core")
        if cached is None:
            assert self._core_ids is not None
            cached = self._index_maps["core"] = {
                core_id: flat for flat, core_id in enumerate(self._core_ids)
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

    def merc_env(self, merc_index: int) -> OperatingPoint:
        """Operating point of one mercurial core (NOMINAL unless adapted)."""
        if self._merc_env is None:
            return NOMINAL
        return self._merc_env[merc_index]

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

    # -- conversions ----------------------------------------------------

    @classmethod
    def from_machines(
        cls, machines: Sequence["Machine"], products: Sequence[CpuProduct] | None = None
    ) -> "FleetColumns":
        """Adapt an object fleet into columns (the objects keep working).

        The adapted columns reference the fleet's *actual* defect model
        objects (no resampling), so analytic rates match the objects
        exactly.  ``to_machines()`` on an adapted instance is refused —
        the original objects are the materialization.
        """
        if products is None:
            seen: dict[int, CpuProduct] = {}
            for machine in machines:
                seen.setdefault(id(machine.product), machine.product)
            products = tuple(seen.values())
        product_index = {id(p): i for i, p in enumerate(products)}

        n_machines = len(machines)
        machine_product = np.zeros(n_machines, dtype=np.int16)
        machine_deploy_day = np.zeros(n_machines, dtype=np.float64)
        counts = np.zeros(n_machines, dtype=np.int64)
        machine_ids = []
        for index, machine in enumerate(machines):
            machine_product[index] = product_index[id(machine.product)]
            machine_deploy_day[index] = machine.deploy_day
            counts[index] = len(machine.cores)
            machine_ids.append(machine.machine_id)
        machine_core_start = np.zeros(n_machines + 1, dtype=np.int64)
        np.cumsum(counts, out=machine_core_start[1:])
        n_cores = int(machine_core_start[-1])

        core_machine = np.repeat(
            np.arange(n_machines, dtype=np.int32), counts
        )
        mercurial = np.zeros(n_cores, dtype=bool)
        online = np.ones(n_cores, dtype=bool)
        merc_core_list: list[int] = []
        merc_defects: list = []
        merc_env: list = []
        merc_onset_list: list[float] = []
        merc_age_list: list[float] = []
        merc_mode_list: list[int] = []
        pattern_ok = True
        core_ids: list[str] = []
        flat = 0
        for m_index, machine in enumerate(machines):
            for within, core in enumerate(machine.cores):  # repro: noqa-PERF002 -- the one sanctioned object->columns adaptation pass
                expected = f"{machine.machine_id}/c{within:02d}"
                if core.core_id != expected:
                    pattern_ok = False
                core_ids.append(core.core_id)
                online[flat] = core.online
                if core.is_mercurial:
                    mercurial[flat] = True
                    merc_core_list.append(flat)
                    merc_defects.append(core.defects)
                    merc_env.append(core.env)
                    merc_onset_list.append(
                        min(d.aging.onset_days for d in core.defects)
                    )
                    merc_age_list.append(core.age_days)
                    merc_mode_list.append(defect_mode_code(core.defects))
                flat += 1

        columns = cls(
            products=tuple(products),
            machine_product=machine_product,
            machine_deploy_day=machine_deploy_day,
            machine_core_start=machine_core_start,
            core_machine=core_machine,
            mercurial=mercurial,
            online=online,
            merc_core=np.array(merc_core_list, dtype=np.int64),
            merc_onset=np.array(merc_onset_list, dtype=np.float64),
            merc_defect_mode=np.array(merc_mode_list, dtype=np.int16),
            merc_age=np.array(merc_age_list, dtype=np.float64),
            merc_sample_seed=np.zeros(len(merc_core_list), dtype=np.uint64),
            merc_core_seed=np.zeros(len(merc_core_list), dtype=np.uint64),
            machine_ids=np.array(machine_ids) if machine_ids else np.array([], dtype="<U1"),
            _merc_defects=merc_defects,
            _merc_env=merc_env,
            _core_ids=None if pattern_ok else core_ids,
        )
        object.__setattr__(columns, "_adapted", True)
        return columns

    def to_machines(self) -> tuple[list["Machine"], "FleetGroundTruth"]:
        """Materialize the object fleet these columns describe: ids,
        defect parameters, per-core RNG seeding (``merc_core_seed``),
        ages, online flags and deploy days all come from the columns.
        Healthy cores get no Generator of their own (they never draw).
        """
        from repro.fleet.machine import Machine

        if getattr(self, "_adapted", False):
            raise ValueError(
                "columns adapted from an object fleet cannot re-materialize "
                "one (no regeneration seeds); use the original machines"
            )
        merc_by_flat = {
            int(flat): index for index, flat in enumerate(self.merc_core)
        }
        machines: list[Machine] = []
        for m_index in range(self.n_machines):
            machine_id = self.machine_id(m_index)
            product = self.products[int(self.machine_product[m_index])]
            start, stop = self.machine_core_range(m_index)
            cores = []
            for flat in range(start, stop):
                core_id = self.core_id(flat)
                merc_index = merc_by_flat.get(flat)
                if merc_index is not None:
                    core = Core(
                        core_id,
                        defects=self.merc_defects(merc_index),
                        env=NOMINAL,
                        rng=np.random.default_rng(
                            int(self.merc_core_seed[merc_index])
                        ),
                        age_days=float(self.merc_age[merc_index]),
                    )
                    core.online = bool(self.online[flat])
                else:
                    core = Core(core_id, env=NOMINAL)
                    core.online = bool(self.online[flat])
                cores.append(core)
            machines.append(
                Machine(
                    machine_id=machine_id,
                    product=product,
                    chip=Chip(cores),
                    deploy_day=float(self.machine_deploy_day[m_index]),
                )
            )
        return machines, self.ground_truth()

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
