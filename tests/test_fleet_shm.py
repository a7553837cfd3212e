"""Shared-memory fleet snapshots: round-trip, lifecycle, invariance.

The zero-copy hand-off contract: ``publish`` packs a
:class:`FleetColumns` into one ``/dev/shm`` segment, workers ``attach``
read-only views, and the parent's ``close`` unlinks the segment even
when workers crash — ``leaked_segments`` must come back empty after
every pool run, and results must be byte-identical for any worker
count.
"""

import dataclasses
import functools
import os

import numpy as np
import pytest

from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import distill
from repro.engine.runner import WorkerCrashError, run_fleet_trials, run_tasks
from repro.fleet import shm
from repro.fleet.columns import SNAPSHOT_FIELDS
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from repro.workloads.generator import blended_op_mix


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
    """Shaped like the benchmark's ``fleet_trial``: a simulated horizon
    on the columns the engine handed over, plus periodic screens of a
    copy thawed before the simulator started."""
    from repro.detection.fleetscreen import FleetScreener
    from repro.fleet.simulator import FleetSimulator, SimulatorConfig

    screened = columns.thaw()
    simulator = FleetSimulator(
        columns,
        config=SimulatorConfig(horizon_days=10.0, warmup_days=0.0),
        seed=trial.seed + 1,
    )
    result = simulator.run()
    screener = FleetScreener(_battery(), env_boost=6.0)
    rng = np.random.default_rng(trial.seed)
    confessed = []
    for day in range(0, 10, 4):
        confessed.extend(
            screener.screen(screened, float(day), rng).confessed_flat
        )
    flagged = sorted(result.flagged())
    return {
        "index": trial.index,
        "events": len(result.events),
        "corruptions": result.total_corruptions,
        "flagged": flagged,
        "true_flagged": len(
            result.truth.mercurial_core_ids.intersection(flagged)
        ),
        "confessed": confessed,
        "investigations": len(result.triage.investigations),
        "mix": [(op, value.hex()) for op, value in simulator.production_mix.items()],
    }


@functools.cache
def _battery():
    """Not picklable (its tests close over local functions): built here,
    before the pool forks, like the benchmark's ``screening_battery``."""
    return distill(TestCorpus.standard())


def _fresh_worker_mix_cost(_item):
    """What building a ``FleetSimulator`` costs a process that inherited
    nothing: (measure_op_mix calls, per-op Core.execute calls, pid)."""
    from repro.fleet.simulator import FleetSimulator
    from repro.silicon.core import Core
    from repro.workloads import generator

    calls = {"measure": 0, "execute": 0}
    real_measure, real_execute = generator.measure_op_mix, Core.execute

    def measure(work, seed=0):
        calls["measure"] += 1
        return real_measure(work, seed)

    def execute(self, op, *operands):
        calls["execute"] += 1
        return real_execute(self, op, *operands)

    # The pool forks from a test process that may hold the mix already.
    generator.spec_op_mix.cache_clear()
    generator.measure_op_mix, Core.execute = measure, execute
    try:
        FleetSimulator(_columns(n_machines=25), seed=1)
    finally:
        generator.measure_op_mix, Core.execute = real_measure, real_execute
    return calls["measure"], calls["execute"], os.getpid()


#: the test process: share 0 of every fan-out runs here
_CALLER = os.getpid()


def _crash(trial, columns):
    if os.getpid() != _CALLER:
        os._exit(3)


class TestSimulatorOnSnapshot:
    def test_attached_columns_run_like_thawed_ones(self):
        """A simulator handed read-only columns quarantines on a private
        copy: the segment stays as published and the result is a run on
        ``thaw()``'s."""
        products = tuple(
            dataclasses.replace(p, core_prevalence=p.core_prevalence * 40.0)
            for p in DEFAULT_PRODUCTS
        )
        columns = FleetBuilder(
            products=products, seed=11, deployment_window=(-700.0, 0.0)
        ).build_columns(40)
        config = SimulatorConfig(horizon_days=30.0, warmup_days=0.0)

        def outcome(fleet):
            result = FleetSimulator(fleet, config=config, seed=5).run()
            return (
                list(result.events), result.quarantine_day,
                result.detection_latency_days, result.total_corruptions,
                result.app_visible_corruptions, result.screening_ops_spent,
            )

        with shm.publish(columns) as snapshot, shm.attach(snapshot.handle) as view:
            published = view.online.tobytes(), view.merc_age.tobytes()
            on_snapshot = outcome(view)
            assert (view.online.tobytes(), view.merc_age.tobytes()) == published
            assert on_snapshot == outcome(view.thaw())
        assert on_snapshot[1], "no core was quarantined: the run wrote nothing"


class TestRunFleetTrials:
    def test_worker_invariance(self):
        columns = _columns(n_machines=25)
        serial = run_fleet_trials(_count_online, columns, 4, seed=9, workers=1)
        pooled = run_fleet_trials(_count_online, columns, 4, seed=9, workers=2)
        assert serial == pooled

    def test_simulation_worker_invariance(self):
        columns = _columns(n_machines=300, seed=5)
        _battery()
        serial = run_fleet_trials(_simulate, columns, 3, seed=2, workers=1)
        pooled = run_fleet_trials(_simulate, columns, 3, seed=2, workers=3)
        assert serial == pooled
        assert [summary["index"] for summary in pooled] == [0, 1, 2]
        assert all(summary["events"] for summary in pooled)
        # every worker simulated under the calibrated production mix
        expected = [(op, value.hex()) for op, value in blended_op_mix().items()]
        assert all(summary["mix"] == expected for summary in pooled)

    def test_fresh_worker_builds_a_simulator_without_measuring_the_mix(self):
        costs = run_tasks(_fresh_worker_mix_cost, [0, 1], workers=2)
        forked = [cost for cost in costs if cost[2] != _CALLER]
        assert [(measured, executed) for measured, executed, _ in forked] == [
            (0, 0),
        ]

    def test_no_segment_leak_after_pool_run(self):
        columns = _columns(n_machines=10)
        run_fleet_trials(_count_online, columns, 4, seed=0, workers=2)
        assert shm.leaked_segments() == []

    def test_worker_crash_raises_and_cleans_up(self):
        columns = _columns(n_machines=10)
        with pytest.raises(WorkerCrashError, match="worker process"):
            run_fleet_trials(_crash, columns, 4, seed=0, workers=2)
        assert shm.leaked_segments() == []
