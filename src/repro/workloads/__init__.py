"""Production-like workloads that compute through simulated cores.

Every workload here is implemented from scratch (no stdlib shortcuts on
the computational path) and routes its primitive operations through
:meth:`repro.silicon.core.Core.execute`, so defects corrupt them the
way real mercurial cores corrupted Google's production software (§2).
"""

from repro.workloads.base import (
    CoreLike,
    OpCountingCore,
    OracleComparison,
    WorkloadResult,
    digest_bytes,
    digest_ints,
    measure_op_counts,
    measure_op_mix,
    op_fractions,
    run_with_oracle,
)
from repro.workloads.compression import (
    CorruptStreamError,
    compress,
    compression_workload,
    decompress,
)
from repro.workloads.copying import (
    copy_bytes,
    copy_words,
    copying_workload,
)
from repro.workloads.crypto import (
    crypto_workload,
    decrypt_block,
    decrypt_ecb,
    encrypt_block,
    encrypt_ecb,
    expand_key,
)
from repro.workloads.database import (
    BTreeIndex,
    QueryStats,
    Record,
    Replica,
    database_workload,
    probe_replica,
)
from repro.workloads.filesystem import FsError, MiniFs, filesystem_workload
from repro.workloads.generator import (
    CALIBRATION_SEED,
    PINNED_OP_COUNTS,
    STANDARD_MIX,
    WorkloadSpec,
    blended_op_mix,
    spec_by_name,
    spec_op_mix,
)
from repro.workloads.hashing import crc64, fnv1a, hashing_workload, mix64
from repro.workloads.locking import (
    SharedState,
    locking_workload,
    run_locked_counter,
)
from repro.workloads.sorting import (
    is_sorted_on,
    merge_sort,
    sorting_workload,
)
from repro.workloads.vectorops import dot, vector_workload, xor_fold

__all__ = [
    "CoreLike",
    "OpCountingCore",
    "OracleComparison",
    "WorkloadResult",
    "digest_bytes",
    "digest_ints",
    "measure_op_counts",
    "measure_op_mix",
    "op_fractions",
    "run_with_oracle",
    "CorruptStreamError",
    "compress",
    "compression_workload",
    "decompress",
    "copy_bytes",
    "copy_words",
    "copying_workload",
    "crypto_workload",
    "decrypt_block",
    "decrypt_ecb",
    "encrypt_block",
    "encrypt_ecb",
    "expand_key",
    "BTreeIndex",
    "QueryStats",
    "Record",
    "Replica",
    "database_workload",
    "probe_replica",
    "FsError",
    "MiniFs",
    "filesystem_workload",
    "CALIBRATION_SEED",
    "PINNED_OP_COUNTS",
    "STANDARD_MIX",
    "WorkloadSpec",
    "blended_op_mix",
    "spec_by_name",
    "spec_op_mix",
    "crc64",
    "fnv1a",
    "hashing_workload",
    "mix64",
    "SharedState",
    "locking_workload",
    "run_locked_counter",
    "is_sorted_on",
    "merge_sort",
    "sorting_workload",
    "dot",
    "vector_workload",
    "xor_fold",
]
