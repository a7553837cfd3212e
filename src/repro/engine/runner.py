"""Deterministic parallel trial execution.

The experiments in :mod:`repro.analysis.experiments` are Monte-Carlo
campaigns: independent trials that differ only in their seed.  This
module is the one place that knows how to fan such trials out over
processes while keeping the contract that matters for a reproduction:
**parallelism changes latency, never results**.

Three rules enforce that contract:

1. Per-trial seeds come from :func:`derive_trial_seeds`
   (``numpy.random.SeedSequence.spawn``), so trial *i*'s seed depends
   only on the master seed and *i*, not on the worker count.
2. Work is striped: with ``W = min(workers, len(items))``, worker *w*
   runs ``items[w::W]``.  The caller is worker 0 and runs its share
   itself; workers 1..W-1 are children forked at the call, which
   inherit ``fn`` and the items copy-on-write and send one pickled
   result list back over a pipe.  Results come back in item order.
3. ``fn``'s exceptions propagate unchanged, from any share.  A child
   that dies (OOM kill, a signal, ``os._exit`` in native code) raises
   :class:`WorkerCrashError` naming its items, never a hang; on every
   way out the caller kills and reaps the children still running.  A
   hard crash in the caller's own share ends the caller, as it does at
   ``workers=1``.

Every call forks afresh, so children see the caller's state as of
the call (monkeypatches, the obs and golden-cache switches).  POSIX
only.  ``workers=1`` (the default unless ``REPRO_WORKERS`` says
otherwise) or a single item forks nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import signal
import sys
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, TypeVar

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.fleet.columns import FleetColumns

T = TypeVar("T")
R = TypeVar("R")

#: environment override for the default worker count
WORKERS_ENV = "REPRO_WORKERS"

_SEED_MASK = (1 << 63) - 1


class WorkerCrashError(RuntimeError):
    """A forked worker died without returning a result; the message
    names its pid, how it died and its items."""


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

    A fan-out wider than ``os.cpu_count()`` is pure overhead: the extra
    processes time-slice one CPU while each still pays its fork and
    its result pickle.  Only the benchmark's host report asks this;
    :func:`run_tasks` deliberately does not clamp, so explicit worker
    counts in tests still fork real children.
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


def _fork_share(fn: Callable[[T], R], share: list[T]) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``fn`` over ``share``; its pid and the
    caller's end of the pipe that carries ``(True, results)`` or
    ``(False, exception)`` back, pickled."""
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: leaves only through os._exit
        status = 1
        try:
            os.close(reader)
            try:
                payload = pickle.dumps((True, [fn(item) for item in share]), -1)
            except BaseException as error:
                payload = pickle.dumps((False, error), -1)
            with open(writer, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(status)
    os.close(writer)
    return pid, open(reader, "rb")


def _share_results(payload: bytes, status: int, pid: int, items: range) -> list:
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        cause = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerCrashError(
            f"worker process {pid} died ({cause}) while running items "
            f"{list(items)}; typical causes: OOM kill, os._exit in native "
            "code, or an exception that does not pickle"
        )
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def run_tasks(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` in item order, striped over forked
    workers (inline at ``workers=1`` or for a single item).  ``fn`` and
    the items are inherited, not pickled, so closures qualify; only the
    results, and any exception a child raises, must pickle.  ``fn``'s
    exceptions propagate unchanged; a worker process dying raises
    :class:`WorkerCrashError`.
    """
    items = list(items)
    width = min(resolve_workers(workers), len(items))
    if width <= 1:
        return [fn(item) for item in items]
    # A child inherits the stdio buffers: flushed now, nothing the
    # caller wrote before the call is written twice.
    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, int, BinaryIO]] = []
    try:
        for share in range(1, width):
            children.append((share, *_fork_share(fn, items[share::width])))
        shares = [[fn(item) for item in items[::width]]]
        while children:
            share, pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            shares.append(_share_results(
                payload, status, pid, range(share, len(items), width)))
    finally:
        # Killed before they are reaped: a child blocked writing a
        # result no one will read would otherwise never exit.
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[index % width][index // width] for index in range(len(items))]


def _obs_trial(fn: Callable[[Trial], R], trial: Trial) -> tuple[R, list, dict]:
    """Run one trial inside a fresh observability scope.

    Resetting the process-global registry *before* the trial is the
    fix for the telemetry-leak bug: every process runs a share of
    several trials, so without the reset its counters accumulate
    across them and the merged totals depend on the worker count.
    After the trial we hand back a snapshot (to merge in the caller)
    plus the drained spans (so traces survive the pickle boundary).
    Trace/span ids derive from the trial seed alone, so they are
    identical for any worker count.
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


def _thawed_fleet_trial(
    fn: Callable[[Trial, FleetColumns], R], columns: FleetColumns, trial: Trial,
) -> R:
    # A fresh mutable-state copy per trial: every trial starts from the
    # caller's fleet, whichever process runs it.
    return fn(trial, columns.thaw())


def run_fleet_trials(
    fn: Callable[[Trial, FleetColumns], R],
    fleet: FleetColumns,
    n_trials: int,
    *,
    seed: int = 0,
    workers: int | None = None,
) -> list[R]:
    """Fan ``fn(trial, columns)`` over trials sharing one fleet.

    Each trial gets its own ``fleet.thaw()`` of the
    :class:`repro.fleet.columns.FleetColumns`.  Forked workers read the
    caller's columns and warm id→index maps copy-on-write: nothing of
    the fleet is pickled or copied into another segment.

    Seed contract and result ordering are exactly
    :func:`run_trials`'s: trial *i*'s seed depends only on
    ``(seed, i)``, results are bit-identical for any worker count.
    """
    bound = functools.partial(_thawed_fleet_trial, fn, fleet)
    return run_trials(bound, n_trials, seed=seed, workers=workers)
