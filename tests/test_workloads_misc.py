"""Copying, vector, sorting workloads and the mix generator."""

import numpy as np
import pytest

from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.silicon.units import Op
from repro.workloads import generator
from repro.workloads.base import (
    OpCountingCore,
    WorkloadResult,
    digest_bytes,
    digest_ints,
    measure_op_counts,
    measure_op_mix,
    run_with_oracle,
)
from repro.workloads.copying import copy_bytes, copy_words, copying_workload
from repro.workloads.generator import (
    CALIBRATION_SEED,
    PINNED_OP_COUNTS,
    STANDARD_MIX,
    WorkloadSpec,
    blended_op_mix,
    spec_by_name,
    spec_op_mix,
)
from repro.workloads.sorting import is_sorted_on, merge_sort
from repro.workloads.vectorops import dot, vector_workload, xor_fold
from tests.pins import PINS, digest


class TestCopying:
    def test_copy_words_identity_on_healthy(self, healthy_core, rng):
        words = [int(x) for x in rng.integers(0, 2**60, 300)]
        assert copy_words(healthy_core, words) == words

    def test_copy_bytes_roundtrip(self, healthy_core):
        data = b"some byte payload of odd length!!!?"
        assert copy_bytes(healthy_core, data) == data

    def test_chunk_validation(self, healthy_core):
        with pytest.raises(ValueError):
            copy_words(healthy_core, [1], chunk=0)
        with pytest.raises(ValueError):
            copy_bytes(healthy_core, b"payload", chunk=0)

    @pytest.mark.usefixtures("kernels_on")
    @pytest.mark.parametrize("size", [0, 1, 8, 35, 512, 520])
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_copy_bytes_pays_per_op_only_where_copy_is_targeted(
        self, execute_calls, size, chunk
    ):
        """One COPY per chunk of 8-byte words, credited in one step on a
        core whose copy datapath no defect targets."""
        data = bytes(range(256)) * 3
        data = data[:size]
        n_copies = -(-(-(-size // 8)) // chunk)
        healthy = Core("cp/h")
        assert copy_bytes(healthy, data, chunk) == data
        assert execute_calls == []
        assert healthy.ops_executed == n_copies
        flipper = Core(
            "cp/flip", defects=named_case("string_bit_flipper"),
            rng=np.random.default_rng(0),
        )
        copy_bytes(flipper, data, chunk)
        assert execute_calls == [Op.COPY] * n_copies
        assert flipper.ops_executed == n_copies

    def test_shared_logic_defect_corrupts_copies(self):
        core = Core(
            "cp/bad", defects=named_case("copy_vector_shared"),
            rng=np.random.default_rng(0),
        )
        detected = 0
        for seed in range(12):
            words = [int(x) for x in
                     np.random.default_rng(seed).integers(0, 2**60, 512)]
            detected += copying_workload(core, words).app_detected
        assert detected > 0


class TestVectorOps:
    def test_dot_matches_python(self, healthy_core, rng):
        xs = [int(x) for x in rng.integers(0, 2**20, 64)]
        ys = [int(x) for x in rng.integers(0, 2**20, 64)]
        assert dot(healthy_core, xs, ys) == sum(a * b for a, b in zip(xs, ys))

    def test_xor_fold(self, healthy_core, rng):
        values = [int(x) for x in rng.integers(0, 2**60, 50)]
        expected = 0
        for v in values:
            expected ^= v
        assert xor_fold(healthy_core, values) == expected

    def test_length_mismatch_rejected(self, healthy_core):
        with pytest.raises(ValueError):
            dot(healthy_core, [1], [1, 2])

    def test_vector_workload_self_check_catches_vector_defect(self):
        # A vector-*unit* defect: the dot product's vector path corrupts
        # while the scalar recompute stays clean, so the self-check
        # fires.  (A SHUFFLE_NETWORK defect would not do: VDOT's
        # datapath is multiplier+adder, not the shuffle network.)
        from repro.silicon.defects import StuckBitDefect
        from repro.silicon.units import FunctionalUnit

        core = Core(
            "v/bad",
            defects=[StuckBitDefect("d", bit=5, base_rate=2e-2,
                                    unit=FunctionalUnit.VECTOR)],
            rng=np.random.default_rng(1),
        )
        detections = sum(
            vector_workload(
                core,
                [int(x) for x in np.random.default_rng(s).integers(0, 2**30, 256)],
            ).app_detected
            for s in range(10)
        )
        assert detections > 0


class TestSorting:
    def test_merge_sort_correct(self, healthy_core, rng):
        values = [int(x) for x in rng.integers(0, 2**48, 300)]
        assert merge_sort(healthy_core, values) == sorted(values)

    def test_is_sorted_on_healthy(self, healthy_core):
        assert is_sorted_on(healthy_core, [1, 2, 3])
        assert not is_sorted_on(healthy_core, [3, 2, 1])

    def test_comparator_defect_misorders(self, rng):
        core = Core(
            "s/bad", defects=named_case("comparator_flip"),
            rng=np.random.default_rng(2),
        )
        values = [int(x) for x in rng.integers(0, 2**48, 400)]
        assert merge_sort(core, values) != sorted(values)


class TestBase:
    def test_op_counting_core_tallies(self, healthy_core):
        counting = OpCountingCore(healthy_core)
        counting.execute("add", 1, 2)
        counting.execute("add", 3, 4)
        counting.execute("mul", 5, 6)
        assert counting.counts["add"] == 2
        assert counting.op_mix()["mul"] == pytest.approx(1 / 3)

    def test_measure_op_mix_normalizes(self):
        mix = measure_op_mix(lambda core: core.execute("add", 1, 1))
        assert mix == {"add": 1.0}

    def test_digest_bytes_sensitivity(self):
        assert digest_bytes(b"a") != digest_bytes(b"b")

    def test_run_with_oracle_flags_silent_corruption(self, reference_core):
        def unchecked_copy(core, words):
            # no self-check: only the oracle can notice a bad copy
            return WorkloadResult(
                name="copying_unchecked",
                output_digest=digest_ints(copy_words(core, words)),
                app_detected=False,
                units=len(words),
            )

        core = Core(
            "o/bad", defects=named_case("copy_vector_shared"),
            rng=np.random.default_rng(3),
        )
        for seed in range(12):
            words = [int(x) for x in
                     np.random.default_rng(seed).integers(0, 2**60, 512)]
            comparison = run_with_oracle(
                lambda c, w=words: unchecked_copy(c, w),
                core, reference_core,
            )
            if comparison.silent_corruption:
                return
        pytest.fail("defect never corrupted an unchecked copy")


class TestGenerator:
    def test_weights_positive_and_named(self):
        assert all(spec.weight > 0 for spec in STANDARD_MIX)
        assert len({spec.name for spec in STANDARD_MIX}) == len(STANDARD_MIX)

    def test_spec_by_name(self):
        assert spec_by_name("crypto").name == "crypto"
        with pytest.raises(KeyError):
            spec_by_name("nope")

    def test_build_is_deterministic_per_seed(self, healthy_core, reference_core):
        spec = spec_by_name("hashing")
        a = spec.build(99)(healthy_core)
        b = spec.build(99)(reference_core)
        assert a.output_digest == b.output_digest

    def test_blended_mix_sums_to_one(self):
        mix = blended_op_mix()
        assert sum(mix.values()) == pytest.approx(1.0, abs=1e-6)


def _two_adds(core):
    core.execute("add", 1, 2)
    core.execute("add", 3, 4)


def _mul_and_three_xors(core):
    core.execute("mul", 5, 6)
    for operand in range(3):
        core.execute("xor", operand, 1)


class TestPinnedMix:
    """The production mix is a written-down calibration constant; the
    per-op measurement stays as the reference it is held against."""

    @pytest.fixture
    def measure_calls(self, monkeypatch):
        calls = []

        def counting(work, seed=0):
            calls.append(work)
            return measure_op_mix(work, seed)

        monkeypatch.setattr(generator, "measure_op_mix", counting)
        spec_op_mix.cache_clear()
        yield calls
        spec_op_mix.cache_clear()

    def test_table_names_the_standard_mix(self):
        assert list(PINNED_OP_COUNTS) == [spec.name for spec in STANDARD_MIX]

    @pytest.mark.parametrize("spec", STANDARD_MIX, ids=lambda spec: spec.name)
    def test_remeasured_counts_equal_the_table(self, spec):
        counts = measure_op_counts(spec.build(CALIBRATION_SEED))
        assert dict(counts) == PINNED_OP_COUNTS[spec.name]

    def test_blended_mix_is_bit_identical_to_the_measured_one(
        self, measure_calls
    ):
        # ``PINS["blended_mix"]`` holds the (op, share) pairs in dict
        # order, measured per op on the tree before the mix was pinned
        mix = blended_op_mix()
        assert digest(list(mix.items())) == PINS["blended_mix"]
        assert measure_calls == []

    def test_another_seed_still_measures(self, measure_calls):
        measured = dict(spec_op_mix(spec_by_name("sorting"), seed=7))
        assert len(measure_calls) == 1
        assert measured == measure_op_mix(spec_by_name("sorting").build(7))
        # cached from here on, like the pinned rows
        spec_op_mix(spec_by_name("sorting"), seed=7)
        assert len(measure_calls) == 1

    def test_blend_measures_the_specs_it_is_handed(self, measure_calls):
        custom = (
            WorkloadSpec("adds", 3.0, lambda seed: _two_adds),
            WorkloadSpec("mulxor", 1.0, lambda seed: _mul_and_three_xors),
        )
        assert blended_op_mix(custom) == {
            "add": 0.75, "mul": 0.0625, "xor": 0.1875,
        }
        assert len(measure_calls) == 2

    def test_a_same_name_impostor_is_not_the_pinned_unit(self, measure_calls):
        impostor = WorkloadSpec("hashing", 0.18, lambda seed: _two_adds)
        assert blended_op_mix((impostor,)) == {"add": 1.0}
        assert len(measure_calls) == 1
        # ... and did not displace the real unit's row
        assert dict(spec_op_mix(spec_by_name("hashing"))) == {
            "mul": 0.25, "shl": 0.125, "shr": 0.125, "xor": 0.5,
        }
        assert len(measure_calls) == 1
