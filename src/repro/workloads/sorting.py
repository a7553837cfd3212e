"""Sorting through a possibly-defective comparator.

Sorting is the canonical SDC-study algorithm (the paper cites empirical
soft-error studies of sorting [11]).  The sort below funnels *every*
element comparison through the core's comparator, so a comparator
defect yields misordered output — and, instructively, the natural
"is it sorted?" self-check uses the same broken comparator and can be
fooled, which is why the resilient version in
:mod:`repro.mitigation.resilient.sorting` exists.
"""

from __future__ import annotations

from repro.silicon.units import Op
from repro.workloads.base import CoreLike, WorkloadResult, digest_ints, on_host


def less_than(core: CoreLike, a: int, b: int) -> bool:
    """Strict unsigned less-than on the core comparator."""
    return core.execute(Op.BLT, a, b) == 1


_SORT_OPS = frozenset({Op.BLT})


def _merge_sort(core: CoreLike, values: list[int]) -> list[int]:
    items = list(values)
    width = 1
    n = len(items)
    while width < n:
        merged: list[int] = []
        for start in range(0, n, 2 * width):
            left = items[start:start + width]
            right = items[start + width:start + 2 * width]
            i = j = 0
            while i < len(left) and j < len(right):
                if less_than(core, right[j], left[i]):
                    merged.append(right[j])
                    j += 1
                else:
                    merged.append(left[i])
                    i += 1
            merged.extend(left[i:])
            merged.extend(right[j:])
        items = merged
        width *= 2
    return items


def merge_sort(core: CoreLike, values: list[int]) -> list[int]:
    """Stable bottom-up merge sort; comparisons on the core."""
    return on_host(core, _SORT_OPS, _merge_sort, values)


def _is_sorted_on(core: CoreLike, values: list[int]) -> bool:
    for a, b in zip(values, values[1:]):
        if less_than(core, b, a):
            return False
    return True


def is_sorted_on(core: CoreLike, values: list[int]) -> bool:
    """Sortedness check using the same (possibly broken) comparator."""
    return on_host(core, _SORT_OPS, _is_sorted_on, values)


def sorting_workload(core: CoreLike, values: list[int]) -> WorkloadResult:
    """Sort with the naive on-core sortedness self-check.

    A *consistently* wrong comparator passes its own check — the
    workload is deliberately checkable-but-fooled, demonstrating why
    end-to-end checks beat in-band ones (§7's end-to-end argument).
    """
    output = merge_sort(core, values)
    return WorkloadResult(
        name="sorting",
        output_digest=digest_ints(output),
        app_detected=not is_sorted_on(core, output),
        units=len(values),
    )
