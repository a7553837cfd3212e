"""Workload mixes: sampling realistic work and measuring op profiles.

The fleet simulator needs two things from the workload layer:

1. concrete units of work to execute on suspect cores (the sampled
   tier), and
2. *operation mixes* — the fraction of dynamic operations each workload
   sends to each functional unit — so the analytic tier can compute a
   defective core's expected corruption rate under production load
   without executing anything (§4's "more a property of programs than
   of CEEs" is literal here: the same defect has wildly different
   observable rates under different mixes).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

from repro.workloads.base import (
    CoreLike,
    WorkloadResult,
    measure_op_mix,
    op_fractions,
)
from repro.workloads.compression import compression_workload
from repro.workloads.copying import copying_workload
from repro.workloads.crypto import crypto_workload
from repro.workloads.database import database_workload
from repro.workloads.filesystem import filesystem_workload
from repro.workloads.hashing import hashing_workload
from repro.workloads.locking import locking_workload
from repro.workloads.sorting import sorting_workload
from repro.workloads.vectorops import vector_workload


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A named workload with a deterministic-work builder.

    ``build(seed)`` returns a closure ``work(core) -> WorkloadResult``
    whose behaviour depends only on the seed and the core, so the same
    unit of work can be replayed on different cores (oracle comparison,
    redundant execution).
    """

    name: str
    weight: float
    build: Callable[[int], Callable[[CoreLike], WorkloadResult]]


def _bytes_for(seed: int, size: int) -> bytes:
    rng = np.random.default_rng(seed)
    # Compressible-ish data: runs + random bytes, like logs or protos.
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.4:
            out.extend(bytes([int(rng.integers(65, 91))]) * int(rng.integers(3, 12)))
        else:
            out.extend(rng.integers(0, 256, size=8, dtype=np.uint8).tobytes())
    return bytes(out[:size])


def _ints_for(seed: int, count: int, bits: int = 32) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**bits, size=count, dtype=np.uint64)]


def _build_hashing(seed: int):
    data = _bytes_for(seed, 512)
    return lambda core: hashing_workload(core, data)


def _build_compression(seed: int):
    data = _bytes_for(seed, 600)
    return lambda core: compression_workload(core, data)


def _build_crypto(seed: int):
    data = _bytes_for(seed, 128)
    key = _bytes_for(seed ^ 0x5EED, 16)
    return lambda core: crypto_workload(core, data, key)


def _build_copying(seed: int):
    words = _ints_for(seed, 512, bits=60)
    return lambda core: copying_workload(core, words)


def _build_locking(seed: int):
    rng = np.random.default_rng(seed)
    threads = int(rng.integers(2, 6))
    return lambda core: locking_workload(core, n_threads=threads, iterations=24)


def _build_vector(seed: int):
    values = _ints_for(seed, 256, bits=30)
    return lambda core: vector_workload(core, values)


def _build_sorting(seed: int):
    values = _ints_for(seed, 300, bits=48)
    return lambda core: sorting_workload(core, values)


def _build_database(seed: int):
    keys = _ints_for(seed, 150, bits=40)
    probes = keys[::3]
    return lambda core: database_workload(core, keys, probes)


def _build_filesystem(seed: int):
    rng = np.random.default_rng(seed)
    files = {
        f"file{index}": _bytes_for(seed + index, int(rng.integers(100, 400)))
        for index in range(5)
    }
    return lambda core: filesystem_workload(core, files)


#: the production-like mix: weights loosely follow a storage-heavy fleet
STANDARD_MIX: tuple[WorkloadSpec, ...] = (
    WorkloadSpec("hashing", 0.18, _build_hashing),
    WorkloadSpec("compression", 0.15, _build_compression),
    WorkloadSpec("crypto", 0.10, _build_crypto),
    WorkloadSpec("copying", 0.17, _build_copying),
    WorkloadSpec("locking", 0.08, _build_locking),
    WorkloadSpec("vectorops", 0.12, _build_vector),
    WorkloadSpec("sorting", 0.08, _build_sorting),
    WorkloadSpec("database", 0.07, _build_database),
    WorkloadSpec("filesystem", 0.05, _build_filesystem),
)


def spec_by_name(name: str) -> WorkloadSpec:
    """Look up a standard-mix workload spec; KeyError if unknown."""
    for spec in STANDARD_MIX:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}")


#: the seed the production mix is calibrated at
CALIBRATION_SEED = 1234

#: dynamic op counts of each :data:`STANDARD_MIX` unit at
#: :data:`CALIBRATION_SEED`, as :class:`OpCountingCore` tallies them.
#: The production mix is a constant of the calibration, so it is written
#: down instead of re-measured (122 589 per-op executes) by every
#: process that builds a fleet simulator.  ``tests/test_workloads_misc.py``
#: re-measures all nine units against these integers: a workload edit
#: that moves the fleet's corruption rates shows up as a diff of this
#: table.  Regenerate a row with :func:`repro.workloads.base.measure_op_counts`:
#: ``dict(measure_op_counts(spec_by_name(NAME).build(CALIBRATION_SEED)))``.
PINNED_OP_COUNTS: dict[str, dict[str, int]] = {
    "hashing": {"xor": 2048, "mul": 1024, "shr": 512, "shl": 512},
    "compression": {
        "add": 1682, "beq": 81071, "sub": 275, "load": 370, "copy": 165,
    },
    "crypto": {"sbox": 1520, "xor": 13876, "gfmul": 10368, "inv_sbox": 1440},
    "copying": {"copy": 8},
    "locking": {
        "cas": 2000, "load": 120, "add": 120, "store": 120, "xchg": 120,
    },
    "vectorops": {"vdot": 32, "add": 288, "mul": 256},
    "sorting": {"blt": 2521},
    "database": {"blt": 1534, "beq": 446},
    "filesystem": {"store": 49, "load": 112},
}


@functools.lru_cache(maxsize=None)
def spec_op_mix(
    spec: WorkloadSpec, seed: int = CALIBRATION_SEED
) -> tuple[tuple[str, float], ...]:
    """Operation mix of ``spec``'s unit of work at ``seed`` (cached).

    The :data:`STANDARD_MIX` specs at :data:`CALIBRATION_SEED` read
    :data:`PINNED_OP_COUNTS`; any other spec or seed is measured by
    running ``spec.build(seed)`` on a healthy counting core.
    """
    if seed == CALIBRATION_SEED and spec in STANDARD_MIX:
        mix = op_fractions(PINNED_OP_COUNTS[spec.name])
    else:
        mix = measure_op_mix(spec.build(seed))
    return tuple(sorted(mix.items()))


def blended_op_mix(
    specs: tuple[WorkloadSpec, ...] = STANDARD_MIX
) -> dict[str, float]:
    """Weight-blend the op mixes of a workload set.

    This is the "production operation mix" the analytic fleet tier uses
    to turn a defect model into an expected incident rate.
    """
    total_weight = sum(spec.weight for spec in specs)
    blended: dict[str, float] = {}
    for spec in specs:
        for op, fraction in spec_op_mix(spec):
            blended[op] = blended.get(op, 0.0) + spec.weight * fraction / total_weight
    return blended
