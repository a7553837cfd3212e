"""Instruction-level checking policies: ITHICA, MEEK and RepTFD arms.

§7 asks what it costs to catch a CEE *before* it propagates.  This
module implements the three detector families from the follow-up
literature as per-op checking policies that wrap workload execution:

- :class:`IthicaCheckedCore` — **ITHICA**, intra-thread instruction
  checking: a sampled fraction of operations is re-executed on the
  *same* core and the two results are digest-compared host-side.
  Cheap (no second core) but physically blind to deterministic
  defects — both executions flow through the same broken structure and
  corrupt identically (the §2 self-inverting AES story), so only
  probabilistic CEEs can disagree with themselves.
- :class:`MeekCheckedCore` — **MEEK**, heterogeneous checker pairing: a
  designated checker core re-executes a *compressed* check-stream
  (op, operands, result digest) behind the primary through a bounded
  check-lag queue.  Cross-core, so deterministic defects are visible;
  the price is a second core plus a detection lag, and entries dropped
  on queue overflow are coverage silently lost.
- :class:`ReplayChecker` — **RepTFD**, checkpoint-delimited replay:
  work is committed in granules; a sampled granule is replayed on a
  second core and digest-compared, and a divergence rolls the granule
  back and re-runs it on the next core in the pool (reusing
  :class:`~repro.mitigation.checkpoint.CheckpointRuntime` — §7's
  "recover from a failed computation by restarting on a different
  core").  The only arm here that *corrects* as well as detects.

All digest comparisons are host-side FNV-1a
(:func:`~repro.workloads.base.digest_ints` — the DET-safe idiom from
:mod:`repro.mitigation.redundancy`): the oracle hash is never routed
through a possibly-mercurial core.  Sampling is a deterministic
counter-hash, not an RNG stream, so wrapping a core never perturbs the
defect randomness of the underlying run.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import AbstractSet, Callable, Sequence

import numpy as np

from repro.mitigation.checkpoint import CheckpointRuntime
from repro.silicon.core import Core
from repro.workloads.base import CoreLike, digest_ints

#: one primitive operation of a work unit: (mnemonic, operands)
OpCall = tuple[str, tuple]

#: one unit of work: an ordered tuple of op calls
WorkUnit = tuple[OpCall, ...]

#: mismatch callback: (suspect core id, op mnemonic, unit tag)
MismatchHook = Callable[[str, str, int], None]


def result_digest(result) -> int:
    """Host-side digest of one op result (scalar or tuple of lanes)."""
    if isinstance(result, tuple):
        return digest_ints(result)
    return digest_ints((int(result),))


def _hash01(seed: int, counter: int) -> float:
    """Deterministic hash of (seed, counter) into [0, 1).

    FNV-1a over the two 64-bit words: a stateless sampler that never
    touches an RNG stream, so checking policies cannot perturb the
    defect randomness of the run they are wrapping.
    """
    return digest_ints((seed, counter)) / 2.0**64


#: counters decided per numpy pass of :meth:`OpSampler.take`
_SAMPLER_BLOCK = 1024


class OpSampler:
    """Deterministic op sampler: each occurrence is taken at ``rate``."""

    __slots__ = (
        "rate", "seed", "_seed_state", "_counter", "_block", "_block_end",
    )

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be a probability")
        self.rate = rate
        self.seed = seed
        #: FNV state after the seed word; ``_decide_block`` continues from it
        self._seed_state = digest_ints((seed,))
        self._counter = 0
        #: decisions for counters ``_block_end - len(_block) + 1 .. _block_end``
        self._block: list[bool] = []
        self._block_end = 0

    def take(self) -> bool:
        """Whether the next op occurrence is selected for checking."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        self._counter = counter = self._counter + 1
        if counter > self._block_end:
            self._decide_block()
        return self._block[counter - self._block_end - 1]

    def take_count(self, n: int) -> int:
        """How many of the next ``n`` occurrences :meth:`take` selects,
        advancing the sampler past them exactly as ``n`` calls of
        :meth:`take` would."""
        if self.rate >= 1.0:
            return n
        if self.rate <= 0.0:
            return 0
        counter = self._counter
        end = self._counter = counter + n
        taken = 0
        while counter < end:
            if counter >= self._block_end:
                self._decide_block()
            # the block holds counters first + 1 .. _block_end
            first = self._block_end - _SAMPLER_BLOCK
            stop = min(end, self._block_end)
            taken += self._block[counter - first:stop - first].count(True)
            counter = stop
        return taken

    def _decide_block(self) -> None:
        """``_hash01(seed, counter) < rate`` for the next block of counters.

        The scalar FNV-1a over the counter's eight little-endian bytes,
        continued from the seed word's state, on a ``uint64`` column:
        the multiply wraps mod 2**64 as ``& MASK64`` does, and
        ``uint64 -> float64`` rounds as ``int / 2.0**64`` does.
        """
        start = self._block_end
        counters = np.arange(
            start + 1, start + 1 + _SAMPLER_BLOCK, dtype=np.uint64)
        h = np.full(_SAMPLER_BLOCK, self._seed_state, dtype=np.uint64)
        for shift in range(0, 64, 8):
            h ^= (counters >> np.uint64(shift)) & np.uint64(0xFF)
            h *= np.uint64(0x100000001B3)
        self._block = (h.astype(np.float64) / 2.0**64 < self.rate).tolist()
        self._block_end = start + _SAMPLER_BLOCK


@dataclasses.dataclass(slots=True)
class InstrCheckStats:
    """Cost/coverage accounting shared by all checking arms.

    ``payload_ops`` is what an unchecked run would have executed;
    everything in ``check_ops`` (duplicates, checker re-executions,
    replays, wasted rollback work) is the price of checking.
    """

    payload_ops: int = 0
    check_ops: int = 0
    ops_sampled: int = 0
    mismatches: int = 0
    lag_drops: int = 0
    replays: int = 0

    @property
    def slowdown_factor(self) -> float:
        """Total executed ops relative to the unchecked baseline."""
        if self.payload_ops == 0:
            return 1.0
        return (self.payload_ops + self.check_ops) / self.payload_ops


class IthicaCheckedCore:
    """ITHICA arm: same-core duplicate execution of sampled ops.

    Wraps a core; a sampled fraction of executed ops is immediately
    re-executed on the *same* core and the two results digest-compared.
    A disagreement means the core is non-deterministically
    miscomputing — a probabilistic CEE caught before the result leaves
    the thread.  Deterministic defects
    corrupt both executions identically and are invisible by design.
    """

    def __init__(
        self,
        inner: CoreLike,
        sample_rate: float,
        seed: int = 0,
        stats: InstrCheckStats | None = None,
        on_mismatch: MismatchHook | None = None,
    ):
        self.inner = inner
        self.core_id = inner.core_id
        self.sampler = OpSampler(sample_rate, seed=seed)
        self.stats = stats if stats is not None else InstrCheckStats()
        self.on_mismatch = on_mismatch
        #: campaign-settable tag attributed to mismatches (unit index)
        self.tag = 0

    def execute(self, op: str, *operands):
        """Execute on the wrapped core; maybe duplicate and compare."""
        result = self.inner.execute(op, *operands)
        stats = self.stats
        stats.payload_ops += 1
        if self.sampler.take():
            stats.ops_sampled += 1
            stats.check_ops += 1
            duplicate = self.inner.execute(op, *operands)
            # equal values have equal digests: hash only on disagreement
            if duplicate != result and (
                result_digest(duplicate) != result_digest(result)
            ):
                stats.mismatches += 1
                if self.on_mismatch is not None:
                    self.on_mismatch(self.core_id, op, self.tag)
        return result

    def credit_untargeted(self, ops: AbstractSet[str], n_ops: int) -> bool:
        """Charge ``n_ops`` executions of ``ops`` and their sampled
        duplicates in one step, if the wrapped core credits them.

        True only for a plain :class:`Core` that accepts ``ops``.  Both executions of an untargeted op
        are golden, so a duplicate never disagrees: the ``k`` sampled
        occurrences (:meth:`OpSampler.take_count`) cost the inner core
        ``k`` more ops, count as sampled and checked, and record no
        mismatch — what ``n_ops`` calls of :meth:`execute` would do.
        An offline core refuses, so the first per-op ``execute`` raises.
        """
        inner = self.inner
        if not isinstance(inner, Core) or not inner.credit_untargeted(ops, 0):
            return False
        sampled = self.sampler.take_count(n_ops)
        inner.credit_untargeted(ops, n_ops + sampled)
        stats = self.stats
        stats.payload_ops += n_ops
        stats.ops_sampled += sampled
        stats.check_ops += sampled
        return True

    def golden(self, op: str, *operands):
        """Defect-free semantics via the wrapped core."""
        return self.inner.golden(op, *operands)


@dataclasses.dataclass(slots=True)
class CheckEntry:
    """One compressed check-stream record handed to the MEEK checker.

    The primary's full result is *not* shipped — only its digest, which
    is the stream compression that makes a lag queue of these cheap.
    """

    op: str
    operands: tuple
    digest: int
    tag: int


class MeekCheckedCore:
    """MEEK arm: heterogeneous checker core behind a bounded lag queue.

    The primary executes everything; sampled ops are appended to a
    check-stream queue as (op, operands, result-digest).  A designated
    checker core drains the queue (:meth:`flush`) at its own pace,
    re-executing each entry and comparing digests.  The queue is
    bounded: when the primary outruns the checker the *oldest* entry is
    dropped and counted — coverage lost, reported honestly via
    ``stats.lag_drops`` and the overflow hook.

    Mismatches are attributed to the primary: the design assumption is
    a trusted (screened) checker, and a defective checker shows up as a
    storm of mismatches against *every* primary it checks.
    """

    def __init__(
        self,
        inner: CoreLike,
        checker: CoreLike,
        sample_rate: float,
        lag_limit: int = 64,
        seed: int = 0,
        stats: InstrCheckStats | None = None,
        on_mismatch: MismatchHook | None = None,
        on_overflow: Callable[[str, int], None] | None = None,
    ):
        if lag_limit < 1:
            raise ValueError("lag_limit must be >= 1")
        self.inner = inner
        self.core_id = inner.core_id
        self.checker = checker
        self.lag_limit = lag_limit
        self.sampler = OpSampler(sample_rate, seed=seed)
        self.stats = stats if stats is not None else InstrCheckStats()
        self.on_mismatch = on_mismatch
        self.on_overflow = on_overflow
        self.tag = 0
        self._queue: collections.deque[CheckEntry] = collections.deque()

    @property
    def lag(self) -> int:
        """Entries currently waiting for the checker."""
        return len(self._queue)

    def execute(self, op: str, *operands):
        """Execute on the primary; maybe enqueue a check-stream entry."""
        result = self.inner.execute(op, *operands)
        stats = self.stats
        stats.payload_ops += 1
        if self.sampler.take():
            stats.ops_sampled += 1
            if len(self._queue) >= self.lag_limit:
                self._queue.popleft()
                stats.lag_drops += 1
                if self.on_overflow is not None:
                    self.on_overflow(self.core_id, self.tag)
            self._queue.append(
                CheckEntry(op, operands, result_digest(result), self.tag)
            )
        return result

    def golden(self, op: str, *operands):
        """Defect-free semantics via the wrapped core."""
        return self.inner.golden(op, *operands)

    def flush(self, budget: int | None = None) -> int:
        """Drain up to ``budget`` entries through the checker core.

        Returns the number of entries checked.  ``budget=None`` drains
        the whole queue (end-of-run barrier).
        """
        drained = 0
        stats = self.stats
        while self._queue and (budget is None or drained < budget):
            entry = self._queue.popleft()
            drained += 1
            stats.check_ops += 1
            check = self.checker.execute(entry.op, *entry.operands)
            if result_digest(check) != entry.digest:
                stats.mismatches += 1
                if self.on_mismatch is not None:
                    self.on_mismatch(self.core_id, entry.op, entry.tag)
        return drained


#: runs of one granule (first try plus rollbacks) before RepTFD gives up
REPLAY_MAX_ATTEMPTS = 4


class ReplayChecker:
    """RepTFD arm: checkpoint-delimited replay with rollback.

    Executes work units in granules through a
    :class:`~repro.mitigation.checkpoint.CheckpointRuntime` whose
    granule check replays sampled granules on a designated replay core
    and digest-compares per-unit outputs.  A divergence fails the
    check, so the runtime rolls the granule back and re-runs it on the
    next core in the pool — detection *and* correction, at the price of
    replay work plus wasted rollback execution.
    """

    def __init__(
        self,
        pool: Sequence[CoreLike],
        replay_core: CoreLike,
        sample_rate: float = 1.0,
        seed: int = 0,
        stats: InstrCheckStats | None = None,
        on_divergence: MismatchHook | None = None,
        on_replay: Callable[[int, int], None] | None = None,
    ):
        if not pool:
            raise ValueError("need at least one core in the pool")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample rate must be a probability")
        self.pool = list(pool)
        self.replay_core = replay_core
        self.sample_rate = sample_rate
        self.seed = seed
        self.stats = stats if stats is not None else InstrCheckStats()
        self.on_divergence = on_divergence
        self.on_replay = on_replay
        self.tag = 0
        self._granule_index = 0
        self._units: Sequence[WorkUnit] = ()
        self._tags: Sequence[int] = ()
        self._attempt_core_id = ""

    def _execute_unit(self, core: CoreLike, unit: WorkUnit) -> int:
        return digest_ints(
            result_digest(core.execute(op, *operands))
            for op, operands in unit
        )

    def _step(
        self, core: CoreLike, state: tuple[int, ...], unit: WorkUnit
    ) -> tuple[int, ...]:
        self._attempt_core_id = core.core_id
        self.stats.payload_ops += len(unit)
        return state + (self._execute_unit(core, unit),)

    def _check(self, state: tuple[int, ...]) -> bool:
        committed = self._granule_start
        fresh = state[committed:]
        if not fresh:
            return True
        sampled = (
            self.sample_rate >= 1.0
            or _hash01(self.seed, self._granule_index + 1) < self.sample_rate
        )
        diverged = False
        if sampled:
            self.stats.replays += 1
            if self.on_replay is not None:
                self.on_replay(self.tag, len(fresh))
            for offset, digest in enumerate(fresh):
                unit = self._units[committed + offset]
                self.stats.check_ops += len(unit)
                if self._execute_unit(self.replay_core, unit) != digest:
                    self.stats.mismatches += 1
                    diverged = True
                    if self.on_divergence is not None:
                        self.on_divergence(
                            self._attempt_core_id, unit[0][0],
                            self._tags[committed + offset],
                        )
        if diverged:
            # Wasted primary work becomes check cost: the granule is
            # rolled back and re-run on the next core in the pool.
            wasted = sum(len(self._units[committed + o])
                         for o in range(len(fresh)))
            self.stats.payload_ops -= wasted
            self.stats.check_ops += wasted
            return False
        self._granule_start = len(state)
        return True

    def run_granule(
        self,
        units: Sequence[WorkUnit],
        tags: Sequence[int] | None = None,
    ) -> tuple[int, ...]:
        """Execute one granule of units; return per-unit output digests.

        ``tags`` attributes divergences to caller-visible unit ids
        (lanes interleave units, so tags need not be consecutive).
        The granule index advances per call, so the sampled-replay
        decision is deterministic across workers and re-runs.

        Raises:
            ~repro.mitigation.checkpoint.GranuleFailedError: the
                granule diverged on every core in the pool.
        """
        self._units = list(units)
        self._tags = (
            list(tags) if tags is not None
            else [self.tag + i for i in range(len(self._units))]
        )
        self._granule_start = 0
        runtime: CheckpointRuntime[tuple[int, ...], WorkUnit] = (
            CheckpointRuntime(
                pool=self.pool,  # type: ignore[arg-type]
                step=self._step,
                check=self._check,
                granule=max(1, len(self._units)),
                checkpoint_cost_items=0.0,
                max_attempts_per_granule=REPLAY_MAX_ATTEMPTS,
            )
        )
        digests = runtime.run((), self._units)
        self._granule_index += 1
        return digests


__all__ = [
    "CheckEntry",
    "InstrCheckStats",
    "IthicaCheckedCore",
    "MeekCheckedCore",
    "OpSampler",
    "ReplayChecker",
    "WorkUnit",
    "result_digest",
]
