"""Lock semantics on a mercurial core.

First on the paper's §2 symptom list: "violations of lock semantics
leading to application data corruption and crashes."  This module runs
N logical threads through a CAS-based spinlock protecting a shared
counter, with a deterministic round-robin interleaving.  Every atomic
primitive executes on the core, so an :class:`AtomicsDefect` produces
the real failure modes:

- a spuriously-succeeding CAS admits two threads into the critical
  section → lost updates → the final counter is wrong (corruption);
- a dropped XCHG store means a release never lands → every thread
  spins forever → the run exhausts its budget (the crash/hang symptom).

The workload's own invariant check (final counter == threads ×
iterations) is the application-level detection signal.
"""

from __future__ import annotations

import dataclasses

from repro.silicon.units import Op
from repro.workloads.base import CoreLike, WorkloadResult, digest_ints, on_host

UNLOCKED = 0


@dataclasses.dataclass
class _Thread:
    """One logical thread's state machine."""

    tid: int
    remaining: int
    phase: str = "acquire"   # acquire → read → bump → write → release
    scratch: int = 0


class SharedState:
    """Lock word + counter, mutated only through core atomics."""

    def __init__(self) -> None:
        self.lock = UNLOCKED
        self.counter = 0
        self.mutual_exclusion_violations = 0
        self._inside: set[int] = set()

    def enter_critical(self, tid: int) -> None:
        """Record entry; a second occupant is a mutual-exclusion violation."""
        if self._inside:
            self.mutual_exclusion_violations += 1
        self._inside.add(tid)

    def leave_critical(self, tid: int) -> None:
        """Record exit from the critical section."""
        self._inside.discard(tid)


#: every op a lock step issues
_LOCK_OPS = frozenset({Op.CAS, Op.LOAD, Op.ADD, Op.STORE, Op.XCHG})


def _step(core: CoreLike, thread: _Thread, shared: SharedState) -> None:
    """Advance one thread by one phase."""
    if thread.phase == "acquire":
        observed = core.execute(Op.CAS, shared.lock, UNLOCKED, thread.tid)
        shared.lock = observed
        if observed == thread.tid:
            shared.enter_critical(thread.tid)
            thread.phase = "read"
        # else: keep spinning in "acquire"
    elif thread.phase == "read":
        thread.scratch = core.execute(Op.LOAD, shared.counter)
        thread.phase = "bump"
    elif thread.phase == "bump":
        thread.scratch = core.execute(Op.ADD, thread.scratch, 1)
        thread.phase = "write"
    elif thread.phase == "write":
        shared.counter = core.execute(Op.STORE, thread.scratch)
        thread.phase = "release"
    elif thread.phase == "release":
        shared.lock = core.execute(Op.XCHG, shared.lock, UNLOCKED)
        shared.leave_critical(thread.tid)
        thread.remaining -= 1
        thread.phase = "acquire"


def run_locked_counter(
    core: CoreLike,
    n_threads: int = 4,
    iterations: int = 32,
) -> tuple[SharedState, bool]:
    """Run the workload to completion or budget exhaustion.

    The budget is 60 steps per thread-iteration.  Returns
    ``(shared_state, hung)``; ``hung`` is True when the budget ran out
    with threads still spinning (the deadlock symptom).
    """
    if n_threads < 1 or iterations < 1:
        raise ValueError("need at least one thread and one iteration")
    return on_host(core, _LOCK_OPS, _run_locked_counter, n_threads, iterations)


def _run_locked_counter(
    core: CoreLike, n_threads: int, iterations: int
) -> tuple[SharedState, bool]:
    step_budget = 60 * n_threads * iterations
    shared = SharedState()
    threads = [_Thread(tid=tid + 1, remaining=iterations) for tid in range(n_threads)]
    steps = 0
    while any(t.remaining > 0 for t in threads):
        if steps >= step_budget:
            return shared, True
        for thread in threads:
            if thread.remaining > 0:
                _step(core, thread, shared)
                steps += 1
    return shared, False


def locking_workload(
    core: CoreLike, n_threads: int = 4, iterations: int = 32
) -> WorkloadResult:
    """Locked-counter work with the invariant self-check."""
    expected = n_threads * iterations
    shared, hung = run_locked_counter(core, n_threads, iterations)
    if hung:
        return WorkloadResult(
            name="locking",
            output_digest=digest_ints([shared.counter]),
            crashed=True,
            detail="hang: lock release never landed",
            units=expected,
        )
    corrupted = shared.counter != expected
    detail = ""
    if shared.mutual_exclusion_violations:
        detail = (
            f"{shared.mutual_exclusion_violations} mutual-exclusion violations"
        )
    return WorkloadResult(
        name="locking",
        output_digest=digest_ints([shared.counter]),
        app_detected=corrupted,
        detail=detail,
        units=expected,
    )
