"""Contract tests for the parallel trial engine (repro.engine.runner).

The engine's promise is layout-independence: the same (fn, items, seed)
produce the same ordered results no matter how many workers execute
them.  Crashes must surface as errors, never as hangs or
silently-missing results, and no forked worker outlives its call.
"""

import contextlib
import io
import os
import signal
import sys

import pytest

from repro import obs
from repro.engine import (
    Trial,
    WorkerCrashError,
    derive_trial_seeds,
    resolve_workers,
    run_tasks,
    run_trials,
)
from repro.silicon.golden import (
    GOLDEN,
    golden_cache,
    golden_cache_clear,
    golden_cache_info,
    golden_call,
    golden_execute,
)
from repro.silicon.isa import Op


#: the test process: share 0 of every fan-out runs here, the other
#: shares in forked children
_CALLER = os.getpid()


def _square(x):
    return x * x


def _trial_tag(trial):
    return (trial.index, trial.seed)


def _crash(x):
    if os.getpid() != _CALLER:
        os._exit(3)
    return x


def _explode(x):
    raise ValueError(f"bad item {x}")


def _killed_mid_share(x):
    if os.getpid() != _CALLER and x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _exit_zero_in_child(x):
    if os.getpid() != _CALLER:
        os._exit(0)
    return x


def _caller_fails_child_returns_big(x):
    if os.getpid() == _CALLER:
        raise ValueError("share 0 failed")
    return bytes(1 << 20)  # 16 times the pipe buffer


def _explode_in_child(x):
    if os.getpid() != _CALLER:
        raise ValueError(f"child item {x}")
    return x


def _shout(x):
    print(f"item {x}")
    return x


def _observed_trial(trial):
    obs.metrics.counter("engine_test_trials_total").inc(trial.index + 1)
    with obs.tracer.span("engine_test.inner", index=trial.index):
        pass
    return trial.seed % 97


@contextlib.contextmanager
def _deadline(seconds):
    """A hang inside the block fails the test instead of the session."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSeeds:
    def test_length_uniqueness_range(self):
        seeds = derive_trial_seeds(42, 64)
        assert len(seeds) == 64
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**63 for s in seeds)

    def test_prefix_stable(self):
        # Trial i's seed depends only on (root seed, i), so widening a
        # sweep never perturbs the trials already run.
        assert derive_trial_seeds(42, 3) == derive_trial_seeds(42, 5)[:3]

    def test_seed_sensitivity(self):
        assert derive_trial_seeds(1, 4) != derive_trial_seeds(2, 4)

    def test_zero_trials(self):
        assert derive_trial_seeds(7, 0) == []


class TestRunTasks:
    def test_empty(self):
        assert run_tasks(_square, [], workers=2) == []

    def test_single_item_runs_inline(self):
        assert run_tasks(_square, [5], workers=4) == [25]

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_order_matches_serial(self, n, workers):
        items = list(range(n))
        assert run_tasks(_square, items, workers=workers) == [
            x * x for x in items
        ]

    def test_worker_crash_is_an_error_not_a_hang(self):
        with pytest.raises(WorkerCrashError, match="worker process"):
            run_tasks(_crash, list(range(4)), workers=2)

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="bad item"):
            run_tasks(_explode, [1, 2], workers=2)
        with pytest.raises(ValueError, match="bad item"):
            run_tasks(_explode, [1, 2], workers=1)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


@pytest.mark.usefixtures("children_reaped")
class TestForkedWorkers:
    """Every way out of a fan-out leaves no child running or unreaped."""

    def test_child_killed_mid_share_names_its_items(self):
        with pytest.raises(
            WorkerCrashError,
            match=r"worker process \d+ died \(signal 9\) .*items \[1, 3, 5\]",
        ):
            run_tasks(_killed_mid_share, range(6), workers=2)

    def test_child_exiting_cleanly_without_results_is_a_crash(self):
        with pytest.raises(WorkerCrashError, match=r"\(exit status 0\)"):
            run_tasks(_exit_zero_in_child, range(4), workers=2)

    def test_caller_share_failing_does_not_wait_on_a_blocked_child(self):
        # The child blocks writing 1 MiB that no one will read; reaping
        # it without closing its pipe or killing it would hang here.
        with _deadline(60), pytest.raises(ValueError, match="share 0 failed"):
            run_tasks(_caller_fails_child_returns_big, [0, 1], workers=2)

    def test_child_exception_keeps_its_type_and_message(self):
        with pytest.raises(ValueError, match=r"^child item 1$"):
            run_tasks(_explode_in_child, [0, 1, 2], workers=2)

    def test_closure_runs_in_a_child(self):
        offset = 10
        results = run_tasks(lambda x: (x + offset, os.getpid()), [0, 1], workers=2)
        assert [value for value, _ in results] == [10, 11]
        assert results[1][1] != _CALLER

    def test_stdio_is_written_once(self, capfd, monkeypatch):
        # A buffered stdout, as a terminal-less run has: "before" sits in
        # the buffer every child inherits.
        stream = io.TextIOWrapper(open(os.dup(1), "wb"))
        monkeypatch.setattr(sys, "stdout", stream)
        print("before")
        assert run_tasks(_shout, range(3), workers=3) == [0, 1, 2]
        stream.flush()
        monkeypatch.undo()
        stream.close()
        assert sorted(capfd.readouterr().out.splitlines()) == [
            "before", "item 0", "item 1", "item 2",
        ]

    def test_caller_obs_state_is_worker_invariant(self):
        prior = obs.enabled()
        obs.set_enabled(True)
        try:
            def run(workers):
                obs.metrics.reset()
                obs.tracer.reset()
                obs.metrics.counter("engine_test_before_total").inc(2)
                results = run_trials(_observed_trial, 5, seed=3, workers=workers)
                spans = [span.to_json() for span in obs.tracer.drain()]
                return results, obs.metrics.snapshot(), spans

            inline = run(1)
            assert inline[2], "no span was recorded"
            assert run(2) == inline
        finally:
            obs.set_enabled(prior)


class TestRunTrials:
    def test_zero_trials(self):
        assert run_trials(_trial_tag, 0, seed=9) == []

    def test_negative_trials(self):
        with pytest.raises(ValueError):
            run_trials(_trial_tag, -1, seed=9)

    def test_worker_invariant(self):
        one = run_trials(_trial_tag, 5, seed=33, workers=1)
        two = run_trials(_trial_tag, 5, seed=33, workers=2)
        assert one == two
        assert [i for i, _ in one] == [0, 1, 2, 3, 4]
        assert [s for _, s in one] == derive_trial_seeds(33, 5)

    def test_trial_is_frozen(self):
        trial = Trial(index=0, seed=5)
        with pytest.raises(AttributeError):
            trial.seed = 6


class TestGoldenCache:
    def setup_method(self):
        golden_cache_clear()

    def test_cached_matches_uncached(self):
        samples = [
            (Op.ADD, (3, 4)),
            (Op.MUL, (7, 9)),
            (Op.DIV, (22, 7)),
            (Op.XOR, (0xFF, 0x0F)),
        ]
        for op, operands in samples:
            if op not in GOLDEN:
                continue
            assert golden_call(op, operands) == golden_execute(op, *operands)
            # Second call comes from the cache and must agree too.
            assert golden_call(op, operands) == golden_execute(op, *operands)

    def test_div_by_zero_raises_every_time(self):
        with pytest.raises(ZeroDivisionError):
            golden_call(Op.DIV, (1, 0))
        with pytest.raises(ZeroDivisionError):
            golden_call(Op.DIV, (1, 0))

    def test_unknown_op_raises_keyerror(self):
        with pytest.raises(KeyError):
            golden_call("NOT_AN_OP", (1, 2))

    @pytest.mark.usefixtures("kernels_on")
    def test_cache_hit_counted(self):
        # GFMUL is in MEMOIZED_OPS (bit-loop golden fn); trivial scalar
        # ops like ADD dispatch directly and never touch the LRUs.
        golden_call(Op.GFMUL, (3, 7))
        before = golden_cache_info().hits
        golden_call(Op.GFMUL, (3, 7))
        assert golden_cache_info().hits == before + 1

    def test_trivial_ops_not_memoized(self):
        golden_cache_clear()
        golden_call(Op.ADD, (1, 2))
        golden_call(Op.ADD, (1, 2))
        info = golden_cache_info()
        assert info.hits == 0 and info.misses == 0

    def test_disable_falls_back_to_direct(self):
        with golden_cache(False):
            assert golden_call(Op.MUL, (6, 7)) == golden_execute(Op.MUL, 6, 7)
