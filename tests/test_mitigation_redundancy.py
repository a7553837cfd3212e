"""DMR/TMR executors."""

import numpy as np
import pytest

from repro.mitigation.redundancy import (
    DmrExecutor,
    RedundancyExhaustedError,
    TmrExecutor,
)
from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.generator import spec_by_name


def _work(seed=7):
    return spec_by_name("hashing").build(seed)


def _bad_core(core_id="rd/bad", rate=1.0, seed=0):
    return Core(
        core_id,
        defects=[StuckBitDefect("d", bit=13, base_rate=rate,
                                unit=FunctionalUnit.MUL_DIV)],
        rng=np.random.default_rng(seed),
    )


class TestDmr:
    def test_healthy_pair_agrees_first_round(self, healthy_pool):
        outcome = DmrExecutor(healthy_pool).run(_work())
        assert outcome.executions == 2
        assert not outcome.detected_corruption
        assert outcome.cost_factor == 2.0

    def test_defective_member_triggers_retry_on_fresh_pair(self, healthy_pool):
        pool = [_bad_core()] + healthy_pool
        outcome = DmrExecutor(pool).run(_work())
        assert outcome.detected_corruption
        assert outcome.executions == 4  # one failed round + one clean round
        assert outcome.disagreements == 1

    def test_exhaustion_raises(self):
        pool = [_bad_core(f"rd/b{i}", seed=i) for i in range(4)]
        # Deterministic defect with different rng -> pairs never agree...
        # actually identical defects corrupt identically; use differing bits.
        pool = [
            Core(
                f"rd/b{i}",
                defects=[StuckBitDefect("d", bit=i + 1, base_rate=1.0,
                                        unit=FunctionalUnit.MUL_DIV)],
                rng=np.random.default_rng(i),
            )
            for i in range(4)
        ]
        with pytest.raises(RedundancyExhaustedError):
            DmrExecutor(pool).run(_work())

    def test_needs_two_cores(self, healthy_core):
        with pytest.raises(ValueError):
            DmrExecutor([healthy_core])


class TestTmr:
    def test_healthy_triple(self, healthy_pool):
        outcome = TmrExecutor(healthy_pool).run(_work())
        assert outcome.executions == 3
        assert not outcome.detected_corruption

    def test_outvotes_one_defective_member(self, healthy_pool):
        pool = [_bad_core()] + healthy_pool[:2]
        outcome = TmrExecutor(pool).run(_work())
        assert outcome.detected_corruption
        # The majority (healthy) result wins.
        reference = _work()(healthy_pool[3])
        assert outcome.result.output_digest == reference.output_digest

    def test_three_way_disagreement_raises(self):
        pool = [
            Core(
                f"rd/t{i}",
                defects=[StuckBitDefect("d", bit=i + 2, base_rate=1.0,
                                        unit=FunctionalUnit.MUL_DIV)],
                rng=np.random.default_rng(i),
            )
            for i in range(3)
        ]
        with pytest.raises(RedundancyExhaustedError):
            TmrExecutor(pool).run(_work())

    def test_identically_defective_majority_wins_silently(self, healthy_pool):
        """The TMR blind spot: two members sharing a deterministic
        defect out-vote the healthy one — correlated defects defeat
        voting (why the paper stresses *independent* cores)."""
        twin_a = Core(
            "rd/twin-a",
            defects=[StuckBitDefect("d", bit=13, base_rate=1.0,
                                    unit=FunctionalUnit.MUL_DIV)],
            rng=np.random.default_rng(0),
        )
        twin_b = Core(
            "rd/twin-b",
            defects=[StuckBitDefect("d", bit=13, base_rate=1.0,
                                    unit=FunctionalUnit.MUL_DIV)],
            rng=np.random.default_rng(1),
        )
        outcome = TmrExecutor([twin_a, twin_b, healthy_pool[0]]).run(_work())
        reference = _work()(healthy_pool[1])
        assert outcome.result.output_digest != reference.output_digest

    def test_needs_three_cores(self, healthy_pool):
        with pytest.raises(ValueError):
            TmrExecutor(healthy_pool[:2])

    def test_unreliable_voter_ablation_runs(self, healthy_pool):
        voter = _bad_core("rd/voter", rate=0.0)  # harmless here
        outcome = TmrExecutor(healthy_pool, voter_core=voter).run(_work())
        assert outcome.executions == 3

    def test_defective_voter_outvotes_two_healthy_workers(self, healthy_pool):
        """§7 regression: "this relies on the voting mechanism itself
        being reliable."  A voter whose comparator is inverted (bit 0
        of BEQ flipped, deterministically) declares the corrupt
        member's digest the majority: the wrong result is returned
        with full TMR confidence — no exception — while the two
        genuinely-healthy, genuinely-agreeing workers are booked as
        the out-voted minority."""
        inverted_voter = Core(
            "rd/voter-inverted",
            defects=[StuckBitDefect("d", bit=0, base_rate=1.0,
                                    ops=(Op.BEQ,))],
            rng=np.random.default_rng(9),
        )
        pool = [_bad_core()] + healthy_pool[:2]
        outcome = TmrExecutor(pool, voter_core=inverted_voter).run(_work())
        reference = _work()(healthy_pool[3])
        # Wrong-but-confident: the corrupt digest "won" the vote...
        assert outcome.result.output_digest != reference.output_digest
        assert outcome.cores_used[0] == "rd/bad"
        # ...with the two healthy workers recorded as the dissenters.
        assert outcome.disagreements == 1
        # Sanity: a host-side (reliable) vote on the same pool returns
        # the healthy majority instead.
        honest = TmrExecutor(pool).run(_work())
        assert honest.result.output_digest == reference.output_digest
