"""SDC-resilient algorithms: the paper's §7/§9 algorithmic mitigations."""

from repro.mitigation.resilient.matfact import (
    AbftError,
    GF_PRIME,
    abft_matmul,
    checksummed_lu,
    matmul,
)
from repro.mitigation.resilient.sorting import (
    SortVerificationError,
    multiset_checksums,
    redundant_order_check,
    resilient_sort,
    verify_sorted,
)

__all__ = [
    "AbftError",
    "GF_PRIME",
    "abft_matmul",
    "checksummed_lu",
    "matmul",
    "SortVerificationError",
    "multiset_checksums",
    "redundant_order_check",
    "resilient_sort",
    "verify_sorted",
]
