"""Deterministic parallel trial execution.

The experiments in :mod:`repro.analysis.experiments` are Monte-Carlo
campaigns: independent trials that differ only in their seed.  This
module is the one place that knows how to fan such trials out over a
process pool while keeping the contract that matters for a
reproduction: **parallelism changes latency, never results**.

Three rules enforce that contract:

1. Per-trial seeds come from :func:`derive_trial_seeds`
   (``numpy.random.SeedSequence.spawn``), so trial *i*'s seed depends
   only on the master seed and *i* — not on the worker count, the chunk
   size, or how many trials run alongside it.
2. Work is chunked and futures are gathered by **submission index**,
   so results come back in trial order regardless of completion order.
3. Workers that die (OOM-kill, ``os._exit`` in native code) surface as
   a :class:`WorkerCrashError` immediately — the pool never hangs.

``workers=1`` (the default unless ``REPRO_WORKERS`` says otherwise)
bypasses the pool entirely and runs inline, so serial callers pay no
pickling or fork cost.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro import obs

T = TypeVar("T")
R = TypeVar("R")

#: environment override for the default worker count
WORKERS_ENV = "REPRO_WORKERS"

_SEED_MASK = (1 << 63) - 1


class WorkerCrashError(RuntimeError):
    """A pool worker died without returning a result.

    Raised instead of letting :class:`BrokenProcessPool` propagate so
    callers get an actionable message (which chunk was lost, likely
    causes) rather than a bare pool error — and never a hang.
    """


@dataclasses.dataclass(frozen=True, slots=True)
class Trial:
    """One unit of Monte-Carlo work: an index and its derived seed."""

    index: int
    seed: int


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else ``REPRO_WORKERS``, else 1."""
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def effective_workers(workers: int | None = None) -> int:
    """Worker count clamped to what the host can actually parallelize.

    A pool wider than ``os.cpu_count()`` is pure overhead: the extra
    processes time-slice one CPU while every chunk still pays pickling
    and IPC.  Benchmarks and campaign entry points use
    this; :func:`run_tasks` itself deliberately does not, so explicit
    worker counts in tests still exercise the real pool.
    """
    workers = resolve_workers(workers)
    return max(1, min(workers, os.cpu_count() or 1))


def derive_trial_seeds(seed: int, n_trials: int) -> list[int]:
    """Independent, stable per-trial seeds from one master seed.

    Uses ``SeedSequence.spawn`` so the streams are statistically
    independent, and trial *i*'s seed is a pure function of
    ``(seed, i)``: asking for more trials later extends the list
    without changing the prefix already consumed.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    children = np.random.SeedSequence(seed).spawn(n_trials)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0]) & _SEED_MASK
        for child in children
    ]


def _run_chunk(fn: Callable[[T], R], chunk: list[T]) -> list[R]:
    return [fn(item) for item in chunk]


def run_tasks(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results are returned in item order.  With ``workers=1`` (or a
    single item) everything runs inline in this process.  ``fn`` and
    the items must be picklable when ``workers > 1`` — module-level
    functions and :func:`functools.partial` over them qualify,
    closures do not.

    Exceptions raised *by* ``fn`` propagate unchanged; a worker process
    dying raises :class:`WorkerCrashError`.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_workers(workers)
    if workers == 1 or len(items) == 1:
        return [fn(item) for item in items]
    if chunk_size is None:
        # ~4 chunks per worker: coarse enough to amortize pickling,
        # fine enough that a slow trial doesn't straggle a whole arm.
        chunk_size = max(1, math.ceil(len(items) / (workers * 4)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks = [
        items[start:start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
    results: list[list[R] | None] = [None] * len(chunks)
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = {
            pool.submit(_run_chunk, fn, chunk): position
            for position, chunk in enumerate(chunks)
        }
        for future in as_completed(futures):
            position = futures[future]
            try:
                results[position] = future.result()
            except BrokenProcessPool as error:
                first = position * chunk_size
                raise WorkerCrashError(
                    f"worker process died while running chunk {position} "
                    f"(items {first}..{first + len(chunks[position]) - 1}); "
                    "typical causes: OOM kill, os._exit in native code, "
                    "or an unpicklable result"
                ) from error
    return [result for chunk in results for result in chunk]  # type: ignore[union-attr]


def _obs_trial(fn: Callable[[Trial], R], trial: Trial) -> tuple[R, list, dict]:
    """Run one trial inside a fresh observability scope.

    Resetting the process-global registry *before* the trial is the
    fix for the telemetry-leak bug: pool workers are long-lived, so
    without the reset a worker's counters accumulate across every
    trial it happens to execute and the merged totals depend on the
    worker count.  After the trial we hand back a snapshot (to merge
    in the parent) plus the drained spans (so traces survive the
    pickle boundary).  Trace/span ids derive from the trial seed
    alone, so they are identical for any worker count.
    """
    obs.metrics.reset()
    obs.tracer.start_trace(trial.seed)
    with obs.tracer.span("engine.trial", index=trial.index, seed=trial.seed):
        result = fn(trial)
    return result, obs.tracer.drain(), obs.metrics.snapshot()


def run_trials(
    fn: Callable[[Trial], R],
    n_trials: int,
    *,
    seed: int = 0,
    workers: int | None = None,
) -> list[R]:
    """Run ``fn`` over ``n_trials`` seeded :class:`Trial` objects.

    The result list is ordered by trial index and is bit-identical for
    any worker count (given ``fn`` itself is deterministic in its
    trial seed).

    When observability is on (:func:`repro.obs.enabled`), each trial
    runs under a per-trial ``engine.trial`` span with a registry reset
    at trial entry; worker-side metric snapshots and spans are merged
    back here in trial order, so the parent process ends up with the
    same metrics and spans regardless of the worker count.
    """
    trials = [
        Trial(index, trial_seed)
        for index, trial_seed in enumerate(derive_trial_seeds(seed, n_trials))
    ]
    if not obs.enabled():
        return run_tasks(fn, trials, workers=workers)
    # Preserve whatever the parent already recorded this session: trials
    # replace the registry contents while they run, then everything is
    # merged back in a deterministic (trial-index) order.
    base_spans = obs.tracer.drain()
    base_metrics = obs.metrics.snapshot()
    wrapped = functools.partial(_obs_trial, fn)
    outcomes = run_tasks(wrapped, trials, workers=workers)
    obs.metrics.reset()
    obs.metrics.merge(base_metrics)
    obs.tracer.adopt(base_spans)
    results: list[R] = []
    for result, spans, snapshot in outcomes:
        results.append(result)
        obs.tracer.adopt(spans)
        obs.metrics.merge(snapshot)
    return results


#: per-process cache of attached fleet snapshots, keyed by segment
#: name.  Pool workers are long-lived within one fan-out; attaching
#: once per worker (not per trial) keeps the hand-off zero-copy and
#: O(1).  Mappings are reclaimed when the worker process exits.
_ATTACH_CACHE: dict = {}


def _attached_columns(handle):
    cached = _ATTACH_CACHE.get(handle.segment_name)
    if cached is None:
        from repro.fleet import shm as fleet_shm

        cached = fleet_shm.attach(handle)
        _ATTACH_CACHE[handle.segment_name] = cached
    return cached.columns


def _shared_fleet_trial(fn, handle, trial: Trial):
    return fn(trial, _attached_columns(handle))


def _inline_fleet_trial(fn, columns, trial: Trial):
    # Fresh mutable-state copy per trial, so inline (workers=1) trials
    # are as independent as pool trials attaching the read-only
    # snapshot — worker-invariance depends on it.
    return fn(trial, columns.thaw())


def run_fleet_trials(
    fn,
    fleet,
    n_trials: int,
    *,
    seed: int = 0,
    workers: int | None = None,
):
    """Fan ``fn(trial, columns)`` over trials sharing one fleet.

    The fleet (:class:`repro.fleet.columns.FleetColumns`) crosses the
    process boundary exactly once, as a
    :mod:`multiprocessing.shared_memory` snapshot published here and
    attached read-only per worker — per-trial pickling of fleet state
    is gone entirely.  ``fn`` must treat the columns as immutable (or
    ``thaw()`` them; :class:`~repro.fleet.simulator.FleetSimulator`
    does this automatically for read-only columns).

    Seed contract and result ordering are exactly
    :func:`run_trials`'s: trial *i*'s seed depends only on
    ``(seed, i)``, results are bit-identical for any worker count.
    The snapshot is unlinked on the way out even when a worker dies
    (:class:`WorkerCrashError`), so no ``/dev/shm`` segments leak.
    """
    workers = resolve_workers(workers)
    if workers == 1 or n_trials <= 1:
        bound = functools.partial(_inline_fleet_trial, fn, fleet)
        return run_trials(bound, n_trials, seed=seed, workers=1)
    from repro.fleet import shm as fleet_shm

    snapshot = fleet_shm.publish(fleet)
    try:
        bound = functools.partial(_shared_fleet_trial, fn, snapshot.handle)
        return run_trials(bound, n_trials, seed=seed, workers=workers)
    finally:
        snapshot.close()
