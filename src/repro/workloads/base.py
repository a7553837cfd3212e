"""Workload plumbing: every workload computes *through* a core.

A workload is a piece of realistic software whose primitive operations
(arithmetic, compares, copies, table lookups, atomics) execute via
:meth:`Core.execute`, so a mercurial core corrupts it exactly where a
real one would.  The module provides:

- :class:`WorkloadResult` — what one unit of work reports upward
  (including whether the *application's own* checks caught anything,
  which is what feeds the §6 application-level signals);
- :class:`OpCountingCore` — a transparent wrapper measuring a
  workload's operation mix, used to parameterize the analytic fleet
  tier;
- :func:`run_with_oracle` — run the same work on a suspect core and a
  known-good reference and diff the outputs (ground-truth scoring and
  the basis of dual-execution detection);
- :func:`credit_untargeted` and :func:`on_host` — where no defect of
  the core targets a stream's ops, the stream runs at host speed and
  the core is charged its op count in one step.  A fixed-length
  primitive (CRC, AES, LZ) asks :func:`credit_untargeted` with its
  count; a data-dependent one (a sort, the B-tree, the lock simulator)
  runs its one body through :func:`on_host`.  A plain ``Core`` and an
  ITHICA checker around one can credit; every other wrapper sees each
  op.  Results, counters, rng state and ITHICA statistics equal the
  per-op path's exactly.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import AbstractSet, Callable, Collection, Mapping, Protocol, TypeVar

import numpy as np

from repro.silicon.core import Core
from repro.silicon.golden import GOLDEN

_T = TypeVar("_T")


class CoreLike(Protocol):
    """Anything that can execute primitive operations."""

    core_id: str

    def execute(self, op: str, *operands):
        """Execute one primitive operation; may corrupt the result."""
        ...


def credit_untargeted(
    core: CoreLike, ops: AbstractSet[str], n_ops: int
) -> bool:
    """:meth:`Core.credit_untargeted` for any ``CoreLike``.

    A plain ``Core`` is asked first and directly.  Any other
    ``CoreLike`` is asked only if its *type* defines
    ``credit_untargeted`` (the ITHICA checker does); the per-op
    wrappers that do not (:class:`OpCountingCore`, MEEK, RepTFD, fault
    injectors, the VM) must see every op, so for them the answer is
    False and the primitive issues its ops one by one.
    """
    if isinstance(core, Core):
        return core.credit_untargeted(ops, n_ops)
    credit = getattr(type(core), "credit_untargeted", None)
    return credit is not None and credit(core, ops, n_ops)


def credit_quiet(core: CoreLike, op: str, values: Collection[int]) -> bool:
    """:meth:`Core.credit_quiet` for any ``CoreLike``; False, as for
    :func:`credit_untargeted`, on anything but a ``Core``."""
    return isinstance(core, Core) and core.credit_quiet(op, values)


class _GoldenCounter:
    """A ``CoreLike`` that returns the golden result of each op and
    counts them: what a core no defect of which targets ``ops`` does,
    less the bookkeeping."""

    __slots__ = ("core_id", "n_ops", "_golden")

    def __init__(self, core_id: str, ops: AbstractSet[str]):
        self.core_id = core_id
        self.n_ops = 0
        # only the declared ops: any other raises KeyError, so a body
        # cannot run an op its credit did not cover
        self._golden = {op: GOLDEN[op] for op in ops}

    def execute(self, op: str, *operands):
        self.n_ops += 1
        return self._golden[op](*operands)


def on_host(
    core: CoreLike,
    ops: AbstractSet[str],
    run: Callable[..., _T],
    *args,
) -> _T:
    """``run(core, *args)`` at host speed where no defect can act on ``ops``.

    For an algorithm whose op count depends on its data (a sort, a tree
    descent, a spinlock): ask :func:`credit_untargeted` for zero ops; on
    True run the *same* body against a counter that returns golden
    results, then credit the ops it counted; on False run it on
    ``core``, one ``execute`` per op.  Results, counters and rng state
    equal the per-op path's because untargeted ops are golden and
    never draw.  The count is credited when ``run`` raises too, as the
    per-op path charges every op issued before a raise; so no op of
    ``ops`` may raise itself (BLT, BEQ and the lock ops cannot), since
    an ITHICA checker charges no payload for an op that raised.
    """
    if not credit_untargeted(core, ops, 0):
        return run(core, *args)
    counter = _GoldenCounter(core.core_id, ops)
    try:
        return run(counter, *args)
    finally:
        credit_untargeted(core, ops, counter.n_ops)


@dataclasses.dataclass(slots=True)
class WorkloadResult:
    """Outcome of one unit of work.

    Attributes:
        name: workload name.
        output_digest: digest of the produced output (comparable across
            runs/cores; computed host-side, not through the core, so the
            digest itself cannot be corrupted).
        app_detected: the workload's own integrity checks tripped.
        crashed: the work died with an exception (§2: defective cores
            exhibit "both wrong results and exceptions").
        detail: context for logs.
        units: how many items/blocks/records were processed.
    """

    name: str
    output_digest: int
    app_detected: bool = False
    crashed: bool = False
    detail: str = ""
    units: int = 0


def digest_bytes(data: bytes) -> int:
    """Host-side FNV-1a digest used to compare outputs across cores.

    Deliberately *not* routed through a core: this is the experimenter's
    oracle hash, immune to the defect under study.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def digest_ints(values, h: int = 0xCBF29CE484222325) -> int:
    """Host-side digest of an int sequence (each value's low 64 bits).

    ``h`` continues from the digest of an earlier prefix:
    ``digest_ints(a + b) == digest_ints(b, digest_ints(a))``.
    """
    for value in values:
        for byte in (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"):
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def op_fractions(counts: Mapping[str, int]) -> dict[str, float]:
    """Normalized operation mix (fractions summing to 1) of an op tally.

    The one ``count / total`` division: a measured tally
    (:meth:`OpCountingCore.op_mix`) and a pinned one
    (:data:`repro.workloads.generator.PINNED_OP_COUNTS`) with equal
    integers give bit-identical fractions.
    """
    total = sum(counts.values())
    if total == 0:
        return {}
    return {op: count / total for op, count in counts.items()}


class OpCountingCore:
    """Wraps a core, tallying executed operations by mnemonic.

    Used to measure workload *operation mixes* — which fraction of a
    workload's dynamic operations hit each functional unit — feeding the
    analytic tier of the fleet simulator and the test-coverage analysis
    ("depends on test coverage", §4).
    """

    def __init__(self, inner: Core):
        self.inner = inner
        self.core_id = inner.core_id
        self.counts: collections.Counter = collections.Counter()

    def execute(self, op: str, *operands):
        """Tally and forward to the wrapped core."""
        self.counts[op] += 1
        return self.inner.execute(op, *operands)

    def golden(self, op: str, *operands):
        """Defect-free semantics via the wrapped core."""
        return self.inner.golden(op, *operands)

    @property
    def total_ops(self) -> int:
        """Total operations executed through this wrapper."""
        return sum(self.counts.values())

    def op_mix(self) -> dict[str, float]:
        """Normalized operation mix (fractions summing to 1)."""
        return op_fractions(self.counts)


def measure_op_counts(
    work: Callable[[CoreLike], object], seed: int = 0
) -> collections.Counter:
    """Run ``work`` once on a healthy instrumented core; return its tally."""
    counting = OpCountingCore(
        Core("oracle/mix", rng=np.random.default_rng(seed))
    )
    work(counting)
    return counting.counts


def measure_op_mix(
    work: Callable[[CoreLike], object], seed: int = 0
) -> dict[str, float]:
    """Run ``work`` once on a healthy instrumented core; return its mix."""
    return op_fractions(measure_op_counts(work, seed))


@dataclasses.dataclass(frozen=True, slots=True)
class OracleComparison:
    """Result of running identical work on suspect and reference cores."""

    suspect: WorkloadResult
    reference: WorkloadResult

    @property
    def outputs_differ(self) -> bool:
        """Ground truth: did the suspect produce a different output?"""
        return self.suspect.output_digest != self.reference.output_digest

    @property
    def silent_corruption(self) -> bool:
        """Wrong output that the application's own checks did not catch."""
        return (
            self.outputs_differ
            and not self.suspect.app_detected
            and not self.suspect.crashed
        )


def run_with_oracle(
    work: Callable[[CoreLike], WorkloadResult],
    suspect: CoreLike,
    reference: CoreLike,
) -> OracleComparison:
    """Run the same deterministic work on two cores and compare.

    ``work`` must be deterministic given the core (seed any randomness
    outside).  The reference core is assumed healthy; in experiments it
    is constructed with no defects, mirroring how the paper's engineers
    checked results "against the expected results".
    """
    return OracleComparison(suspect=work(suspect), reference=work(reference))
