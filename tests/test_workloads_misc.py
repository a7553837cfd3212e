"""Copying, vector, sorting workloads and the mix generator."""

import numpy as np
import pytest

from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.silicon.units import Op
from repro.workloads.base import (
    OpCountingCore,
    digest_bytes,
    measure_op_mix,
    run_with_oracle,
)
from repro.workloads.copying import copy_bytes, copy_words, copying_workload
from repro.workloads.generator import (
    STANDARD_MIX,
    WorkloadMixer,
    blended_op_mix,
    spec_by_name,
)
from repro.workloads.sorting import is_sorted_on, merge_sort, quicksort
from repro.workloads.vectorops import axpy, dot, vector_workload, vsum, xor_fold


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
    def test_vsum_matches_python_sum(self, healthy_core, rng):
        values = [int(x) for x in rng.integers(0, 2**40, 100)]
        assert vsum(healthy_core, values) == sum(values)

    def test_dot_matches_python(self, healthy_core, rng):
        xs = [int(x) for x in rng.integers(0, 2**20, 64)]
        ys = [int(x) for x in rng.integers(0, 2**20, 64)]
        assert dot(healthy_core, xs, ys) == sum(a * b for a, b in zip(xs, ys))

    def test_axpy(self, healthy_core):
        assert axpy(healthy_core, 3, [1, 2], [10, 20]) == [13, 26]

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

    def test_quicksort_correct(self, healthy_core, rng):
        values = [int(x) for x in rng.integers(0, 2**48, 300)]
        assert quicksort(healthy_core, values) == sorted(values)

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
        from repro.workloads.copying import unchecked_copy_workload

        core = Core(
            "o/bad", defects=named_case("copy_vector_shared"),
            rng=np.random.default_rng(3),
        )
        for seed in range(12):
            words = [int(x) for x in
                     np.random.default_rng(seed).integers(0, 2**60, 512)]
            comparison = run_with_oracle(
                lambda c, w=words: unchecked_copy_workload(c, w),
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

    def test_mixer_samples_all_specs_eventually(self):
        mixer = WorkloadMixer(rng=np.random.default_rng(0))
        names = {mixer.sample()[0].name for _ in range(300)}
        assert names == {spec.name for spec in STANDARD_MIX}

    def test_mixer_run_random(self, healthy_core):
        mixer = WorkloadMixer(rng=np.random.default_rng(1))
        result = mixer.run_random(healthy_core)
        assert not result.crashed
