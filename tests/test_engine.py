"""Contract tests for the parallel trial engine (repro.engine.runner).

The engine's promise is layout-independence: the same (fn, items, seed)
produce the same ordered results no matter how the work is chunked or
how many workers execute it.  Crashes must surface as errors, never as
hangs or silently-missing results.
"""

import pytest

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


# Worker functions must live at module level: closures don't pickle
# across the process pool.
def _square(x):
    return x * x


def _trial_tag(trial):
    return (trial.index, trial.seed)


def _crash(x):
    import os

    os._exit(3)


def _explode(x):
    raise ValueError(f"bad item {x}")


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
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_order_matches_serial(self, n, chunk_size):
        items = list(range(n))
        expected = [x * x for x in items]
        serial = run_tasks(_square, items, workers=1, chunk_size=chunk_size)
        pooled = run_tasks(_square, items, workers=2, chunk_size=chunk_size)
        assert serial == expected
        assert pooled == expected

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
