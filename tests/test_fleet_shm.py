"""Shared-memory fleet snapshots: round-trip, lifecycle, invariance.

The zero-copy hand-off contract: ``publish`` packs a
:class:`FleetColumns` into one ``/dev/shm`` segment, workers ``attach``
read-only views, and the parent's ``close`` unlinks the segment even
when workers crash — ``leaked_segments`` must come back empty after
every pool run, and results must be byte-identical for any worker
count.
"""

import numpy as np
import pytest

from repro.engine.runner import WorkerCrashError, run_fleet_trials
from repro.fleet import shm
from repro.fleet.columns import SNAPSHOT_FIELDS, FleetColumns
from repro.fleet.population import FleetBuilder


def _columns(n_machines=40, seed=11):
    return FleetBuilder(
        seed=seed, deployment_window=(-700.0, 0.0)
    ).build_columns(n_machines)


class TestRoundTrip:
    def test_attach_sees_identical_arrays(self):
        columns = _columns()
        snapshot = shm.publish(columns)
        try:
            attached = shm.attach(snapshot.handle)
            try:
                for name in SNAPSHOT_FIELDS:
                    np.testing.assert_array_equal(
                        getattr(attached.columns, name),
                        getattr(columns, name),
                    )
                assert list(attached.columns.machine_ids) == list(
                    columns.machine_ids
                )
                assert attached.columns.ground_truth_map() == (
                    columns.ground_truth_map()
                )
            finally:
                attached.close()
        finally:
            snapshot.close()

    def test_attached_views_are_read_only(self):
        snapshot = shm.publish(_columns())
        try:
            attached = shm.attach(snapshot.handle)
            try:
                assert attached.columns.read_only
                with pytest.raises(ValueError):
                    attached.columns.online[0] = False
            finally:
                attached.close()
        finally:
            snapshot.close()

    def test_defect_sidecar_survives_the_boundary(self):
        columns = _columns(seed=3)
        snapshot = shm.publish(columns)
        try:
            attached = shm.attach(snapshot.handle)
            try:
                for index in range(columns.n_mercurial):
                    assert tuple(
                        repr(d) for d in attached.columns.merc_defects(index)
                    ) == tuple(repr(d) for d in columns.merc_defects(index))
            finally:
                attached.close()
        finally:
            snapshot.close()

    def test_snapshot_bytes_reported(self):
        snapshot = shm.publish(_columns())
        try:
            assert snapshot.handle.snapshot_bytes > 0
        finally:
            snapshot.close()


class TestLifecycle:
    def test_close_unlinks_segment(self):
        snapshot = shm.publish(_columns())
        name = snapshot.handle.segment_name
        snapshot.close()
        assert name not in shm.leaked_segments()

    def test_double_close_is_a_no_op(self):
        snapshot = shm.publish(_columns())
        snapshot.close()
        snapshot.close()  # must not raise

    def test_attached_double_close_is_a_no_op(self):
        snapshot = shm.publish(_columns())
        try:
            attached = shm.attach(snapshot.handle)
            attached.close()
            attached.close()  # must not raise
        finally:
            snapshot.close()

    def test_attach_close_after_publisher_close(self):
        # A worker may outlive the parent's unlink: its mapping stays
        # valid until it closes, and its close never double-unlinks.
        snapshot = shm.publish(_columns())
        attached = shm.attach(snapshot.handle)
        snapshot.close()
        assert int(attached.columns.online.sum()) == attached.columns.n_cores
        attached.close()
        assert snapshot.handle.segment_name not in shm.leaked_segments()

    def test_context_manager(self):
        with shm.publish(_columns()) as snapshot:
            name = snapshot.handle.segment_name
            assert name in shm.leaked_segments()
        assert name not in shm.leaked_segments()

    def test_attach_never_talks_to_the_resource_tracker(self, monkeypatch):
        # The tracker is one process shared by the whole pool: an
        # attach that registers and then unregisters interleaves with
        # another worker's pair into a KeyError there.  Only the owner
        # may message it: one register at publish, one unregister at
        # the unlink.
        from multiprocessing import resource_tracker

        sent: list[tuple[str, str]] = []
        for verb in ("register", "unregister"):
            real = getattr(resource_tracker, verb)

            def recorder(name, rtype, verb=verb, real=real):
                sent.append((verb, name.lstrip("/")))
                real(name, rtype)

            monkeypatch.setattr(resource_tracker, verb, recorder)

        snapshot = shm.publish(_columns())
        name = snapshot.handle.segment_name
        assert sent == [("register", name)]
        sent.clear()
        attached = shm.attach(snapshot.handle)
        attached.close()
        assert sent == []
        snapshot.close()
        assert sent == [("unregister", name)]
        assert name not in shm.leaked_segments()


# Trial functions must live at module level for the pool to pickle.
def _count_online(trial, columns):
    return (trial.index, trial.seed, int(columns.online.sum()))


def _simulate(trial, columns):
    from repro.fleet.simulator import FleetSimulator, SimulatorConfig

    result = FleetSimulator(
        columns,
        config=SimulatorConfig(horizon_days=5.0, warmup_days=0.0),
        seed=trial.seed + 1,
    ).run()
    return (trial.index, len(result.events), sorted(result.flagged()))


def _crash(trial, columns):
    import os

    os._exit(3)


class TestRunFleetTrials:
    def test_worker_invariance(self):
        columns = _columns(n_machines=25)
        serial = run_fleet_trials(_count_online, columns, 4, seed=9, workers=1)
        pooled = run_fleet_trials(_count_online, columns, 4, seed=9, workers=2)
        assert serial == pooled

    def test_simulation_worker_invariance(self):
        columns = _columns(n_machines=25, seed=5)
        serial = run_fleet_trials(_simulate, columns, 3, seed=2, workers=1)
        pooled = run_fleet_trials(_simulate, columns, 3, seed=2, workers=3)
        assert serial == pooled

    def test_no_segment_leak_after_pool_run(self):
        columns = _columns(n_machines=10)
        run_fleet_trials(_count_online, columns, 4, seed=0, workers=2)
        assert shm.leaked_segments() == []

    def test_worker_crash_raises_and_cleans_up(self):
        columns = _columns(n_machines=10)
        with pytest.raises(WorkerCrashError, match="worker process"):
            run_fleet_trials(_crash, columns, 4, seed=0, workers=2)
        assert shm.leaked_segments() == []

    def test_nonstandard_ids_refuse_snapshot(self):
        machines, _ = FleetBuilder(
            seed=1, deployment_window=(-700.0, 0.0)
        ).build(3)
        for machine in machines:
            for core in machine.cores:
                core.core_id = "x-" + core.core_id
        adapted = FleetColumns.from_machines(machines)
        with pytest.raises(ValueError):
            shm.publish(adapted)
