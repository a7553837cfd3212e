"""Screening-test corpus."""

import numpy as np
import pytest

from repro.detection.corpus import ScreeningTest, TestCorpus, make_targeted_test
from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.silicon.defects import OperandPatternDefect, StuckBitDefect
from repro.silicon.units import FunctionalUnit, Op


@pytest.fixture(scope="module")
def corpus():
    return TestCorpus.standard(seeds=(1,))


class TestCorpusStructure:
    def test_standard_covers_every_unit(self, corpus):
        assert corpus.covered_units() == frozenset(FunctionalUnit)

    def test_minimal_covers_every_unit(self):
        assert TestCorpus.minimal().covered_units() == frozenset(FunctionalUnit)

    def test_total_ops_positive(self, corpus):
        assert corpus.total_ops() > 10000

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TestCorpus([])

    def test_add_test_grows_corpus(self, corpus):
        n = len(corpus.tests)
        corpus.add_test(
            make_targeted_test("t", Op.ADD, [(1, 2)], {FunctionalUnit.ALU})
        )
        assert len(corpus.tests) == n + 1
        corpus.tests.pop()


class TestScreening:
    def test_healthy_core_passes(self, corpus):
        core = Core("sc/h", rng=np.random.default_rng(0))
        result = corpus.screen(core)
        assert result.passed and not result.confessed
        assert result.tests_run == len(corpus.tests)

    @pytest.mark.parametrize(
        "case",
        ["self_inverting_aes", "comparator_flip", "string_bit_flipper",
         "lock_violator", "copy_vector_shared"],
    )
    def test_named_cases_confess(self, corpus, case):
        core = Core(
            f"sc/{case}", defects=named_case(case),
            rng=np.random.default_rng(5),
        )
        assert corpus.screen(core, repetitions=3).confessed

    def test_machine_checker_confesses_via_mce(self, corpus):
        core = Core(
            "sc/mce", defects=named_case("machine_checker"),
            rng=np.random.default_rng(5),
        )
        result = corpus.screen(core, repetitions=4)
        assert result.machine_checks > 0
        assert result.confessed

    def test_failed_test_names_carry_unit_information(self, corpus):
        core = Core(
            "sc/aes", defects=named_case("self_inverting_aes"),
            rng=np.random.default_rng(0),
        )
        result = corpus.screen(core)
        assert any("crypto" in name or "aes" in name
                   for name in result.failed_tests)

    def test_ops_cost_accumulates(self, corpus):
        core = Core("sc/h2", rng=np.random.default_rng(0))
        one = corpus.screen(core, repetitions=1).ops_cost
        two = corpus.screen(core, repetitions=2).ops_cost
        assert two == 2 * one > 0


class TestTargetedTests:
    def test_zero_day_pattern_missed_then_caught(self, corpus):
        """§6's workflow: a pattern defect evades the generic corpus
        until a targeted regression test is written for it."""
        defect = OperandPatternDefect(
            "zero-day", mask=0xFFFF0000, value=0x12340000, error=1 << 40,
            base_rate=1.0, ops=(Op.MUL,),
        )
        core = Core("sc/zd", defects=[defect], rng=np.random.default_rng(1))
        assert corpus.screen(core).passed  # generic corpus is blind
        targeted = make_targeted_test(
            "targeted:zero-day", Op.MUL,
            [(0x12340000 | i, 0x12340007) for i in range(8)],
            {FunctionalUnit.MUL_DIV},
        )
        assert not targeted.run(core)

    def test_targeted_test_passes_on_healthy(self):
        targeted = make_targeted_test(
            "t", Op.MUL, [(3, 4), (5, 6)], {FunctionalUnit.MUL_DIV}
        )
        assert targeted.run(Core("sc/h3", rng=np.random.default_rng(0)))

    def test_empty_operand_sets_rejected(self):
        with pytest.raises(ValueError):
            make_targeted_test("t", Op.MUL, [], {FunctionalUnit.MUL_DIV})


class TestDataPatternSeeds:
    def test_multiple_seeds_widen_data_coverage(self):
        """§2: 'data patterns can affect corruption rates' — a defect
        gated on patterns one seed misses can be caught by another."""
        corpus_one = TestCorpus.standard(seeds=(1,))
        corpus_many = TestCorpus.standard(seeds=(1, 2, 3))
        assert len(corpus_many.tests) == 3 * len(corpus_one.tests)
