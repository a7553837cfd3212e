"""Mini filesystem and GC data loss."""

import numpy as np
import pytest

from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit
from repro.workloads.filesystem import BLOCK_BYTES, FsError, MiniFs, filesystem_workload


class TestHealthyFs:
    def test_write_read_roundtrip(self, healthy_core):
        fs = MiniFs(healthy_core)
        fs.write_file("a", b"hello world")
        assert fs.read_file("a") == b"hello world"

    def test_multiblock_file(self, healthy_core):
        fs = MiniFs(healthy_core)
        data = b"x" * (3 * BLOCK_BYTES + 7)
        fs.write_file("big", data)
        assert fs.read_file("big") == data

    def test_overwrite_frees_old_blocks(self, healthy_core):
        fs = MiniFs(healthy_core, n_blocks=8)
        fs.write_file("a", b"y" * (4 * BLOCK_BYTES))
        fs.write_file("a", b"z" * (4 * BLOCK_BYTES))  # would ENOSPC if leaked
        assert fs.read_file("a") == b"z" * (4 * BLOCK_BYTES)

    def test_delete(self, healthy_core):
        fs = MiniFs(healthy_core)
        fs.write_file("a", b"data")
        fs.delete("a")
        with pytest.raises(FsError):
            fs.read_file("a")

    def test_out_of_space(self, healthy_core):
        fs = MiniFs(healthy_core, n_blocks=2)
        with pytest.raises(FsError):
            fs.write_file("big", b"x" * (5 * BLOCK_BYTES))

    def test_missing_file(self, healthy_core):
        with pytest.raises(FsError):
            MiniFs(healthy_core).read_file("nope")

    def test_gc_on_healthy_fs_loses_nothing(self, healthy_core):
        fs = MiniFs(healthy_core)
        fs.write_file("a", b"a" * 100)
        fs.write_file("b", b"b" * 200)
        fs.gc()
        assert fs.lost_blocks == 0
        assert fs.read_file("a") == b"a" * 100

    def test_fsck_clean(self, healthy_core):
        fs = MiniFs(healthy_core)
        fs.write_file("a", b"data")
        assert fs.fsck() == []


class TestGcDataLoss:
    def _gc_core(self, seed=0, rate=8e-3):
        return Core(
            "fs/bad",
            defects=[
                StuckBitDefect("d", bit=3, mode="flip", base_rate=rate,
                               unit=FunctionalUnit.LOAD_STORE)
            ],
            rng=np.random.default_rng(seed),
        )

    def test_corrupted_mark_phase_loses_live_data(self, rng):
        """§2: 'corruption affecting garbage collection ... causing
        live data to be lost'."""
        lost_any = False
        for seed in range(5):
            fs = MiniFs(self._gc_core(seed), n_blocks=2048)
            for index in range(15):
                fs.write_file(f"f{index}", bytes([index]) * 250)
            for _ in range(8):
                fs.gc()
            if fs.lost_blocks > 0:
                lost_any = True
                break
        assert lost_any

    def test_loss_is_detected_only_at_read_time(self):
        """The loss is silent until a reader hits the checksum — the
        wrong-answer-detected-too-late symptom class."""
        for seed in range(8):
            fs = MiniFs(self._gc_core(seed, rate=2e-2), n_blocks=2048)
            data = {f"f{i}": bytes([i + 1]) * 250 for i in range(15)}
            for name, content in data.items():
                fs.write_file(name, content)
            for _ in range(6):
                fs.gc()
            if fs.lost_blocks == 0:
                continue
            failures = 0
            for name, content in data.items():
                try:
                    assert fs.read_file(name) == content
                except (FsError, AssertionError):
                    failures += 1
            assert failures > 0
            return
        pytest.fail("no GC loss induced in any seed")


class TestFilesystemWorkload:
    def test_healthy_clean(self, healthy_core):
        files = {f"f{i}": bytes([i]) * 120 for i in range(5)}
        result = filesystem_workload(healthy_core, files)
        assert not result.app_detected and not result.crashed

    def test_empty_files_is_rejected_before_any_op(self, healthy_core):
        with pytest.raises(ValueError, match="files"):
            filesystem_workload(healthy_core, {})
        assert healthy_core.ops_executed == 0
