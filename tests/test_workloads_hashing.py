"""Hash workloads."""

import numpy as np

from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit
from repro.workloads.hashing import crc64, fnv1a, hashing_workload, mix64


class TestGoldenHashes:
    def test_fnv1a_reference_value(self, healthy_core):
        # Independently computed FNV-1a 64 of b"a".
        assert fnv1a(healthy_core, b"a") == 0xAF63DC4C8601EC8C

    def test_fnv1a_empty_is_offset_basis(self, healthy_core):
        assert fnv1a(healthy_core, b"") == 0xCBF29CE484222325

    def test_crc64_deterministic(self, healthy_core, reference_core):
        data = b"the quick brown fox"
        assert crc64(healthy_core, data) == crc64(reference_core, data)

    def test_crc64_detects_single_bit_change(self, healthy_core):
        a = crc64(healthy_core, b"hello world")
        b = crc64(healthy_core, b"hello worle")
        assert a != b

    def test_mix64_is_bijective_looking(self, healthy_core):
        outputs = {mix64(healthy_core, x) for x in range(200)}
        assert len(outputs) == 200


class TestHashingWorkload:
    def test_healthy_run_clean(self, healthy_core):
        result = hashing_workload(healthy_core, b"payload" * 20)
        assert not result.app_detected
        assert not result.crashed
        assert result.units == 140

    def test_intermittent_defect_detected_by_double_compute(self):
        core = Core(
            "t/bad",
            defects=[
                StuckBitDefect("d", bit=9, base_rate=5e-3,
                               unit=FunctionalUnit.MUL_DIV)
            ],
            rng=np.random.default_rng(1),
        )
        detections = sum(
            hashing_workload(core, bytes([i]) * 300).app_detected
            for i in range(10)
        )
        assert detections >= 1

    def test_output_digest_differs_on_corruption(self, reference_core):
        core = Core(
            "t/bad2",
            defects=[
                StuckBitDefect("d", bit=3, base_rate=1.0,
                               unit=FunctionalUnit.MUL_DIV)
            ],
            rng=np.random.default_rng(2),
        )
        good = hashing_workload(reference_core, b"data")
        bad = hashing_workload(core, b"data")
        assert good.output_digest != bad.output_digest
