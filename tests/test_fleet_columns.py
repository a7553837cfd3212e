"""Columnar fleet substrate: shape, indexing, simulator digests.

A generated fleet is columns from the builder on.  The event-stream
digests below were captured when the simulator still ran object
fleets too, for the production tick and for the scalar reference; the
columnar path has reproduced them draw for draw ever since.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.events import machine_of
from repro.fleet.columns import DEFECT_MODE_CODES, defect_mode_code
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.reference import ScalarReferenceSimulator
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from tests.pins import PINS, digest

N_MACHINES = 120


def _builder(seed=11, products=DEFAULT_PRODUCTS):
    return FleetBuilder(
        products=products, seed=seed, deployment_window=(-700.0, 0.0)
    )


def _boosted_products(boost=40.0):
    return tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * boost)
        for p in DEFAULT_PRODUCTS
    )


def _event_stream(result):
    return [
        (e.time_days, e.machine_id, e.core_id, str(e.kind), str(e.reporter),
         e.detail)
        for e in result.events
    ]


class TestBuildParity:
    def test_counts_and_sizes(self):
        columns = _builder().build_columns(N_MACHINES)
        assert columns.n_machines == N_MACHINES
        assert columns.n_cores == int(columns.core_machine.shape[0])
        assert columns.n_mercurial == int(columns.mercurial.sum())
        assert columns.nbytes > 0


class TestIndexing:
    def test_core_id_index_round_trip(self):
        columns = _builder().build_columns(30)
        for flat in (0, 17, columns.n_cores - 1):
            assert columns.core_index(columns.core_id(flat)) == flat

    def test_unknown_core_id_is_none(self):
        columns = _builder().build_columns(10)
        assert columns.core_index("m99999/c00") is None
        assert columns.core_index("garbage") is None

    def test_every_core_names_its_machine(self):
        renamed = dataclasses.replace(
            _builder().build_columns(4),
            machine_ids=np.array([f"rack{i % 2}.host-{i}" for i in range(4)]),
        )
        for columns in (_builder().build_columns(25), renamed):
            for flat in range(columns.n_cores):
                machine = int(columns.core_machine[flat])
                assert machine_of(columns.core_id(flat)) == (
                    columns.machine_id(machine)
                )

    def test_machine_core_range_partitions_fleet(self):
        columns = _builder().build_columns(25)
        stops = []
        for index in range(columns.n_machines):
            start, stop = columns.machine_core_range(index)
            assert (columns.core_machine[start:stop] == index).all()
            stops.append((start, stop))
        assert stops[0][0] == 0
        assert stops[-1][1] == columns.n_cores


class TestAdapters:
    def test_defect_mode_codes_distinct_and_nonzero(self):
        codes = set(DEFECT_MODE_CODES.values())
        assert len(codes) == len(DEFECT_MODE_CODES)
        assert 0 not in codes  # 0 is reserved for "healthy"
        assert defect_mode_code(()) == 0

    def test_thaw_copies_mutable_state_only(self):
        columns = _builder().build_columns(10)
        thawed = columns.thaw()
        thawed.online[0] = False
        assert bool(columns.online[0]) is True
        # immutable columns are shared, not copied
        assert thawed.core_machine is columns.core_machine

    def test_thaw_shares_the_id_index_maps(self):
        """The ids never change across ``thaw()``, so neither copy
        rebuilds the id → index dict the other already paid for."""
        columns = _builder().build_columns(10)
        assert columns.core_index("m00003/c01") is not None
        built = columns._machine_index_map()
        thawed = columns.thaw()
        assert thawed.core_index("m00003/c01") == \
            columns.core_index("m00003/c01")
        assert thawed._machine_index_map() is built

        # built by a copy first, visible to the source and to siblings
        fresh = _builder().build_columns(10)
        first = fresh.thaw()
        first.core_index("m00000/c00")
        assert fresh._machine_index_map() is first._machine_index_map()
        assert fresh.thaw()._machine_index_map() is first._machine_index_map()

    def test_machine_index_map_is_the_str_keyed_enumeration(self):
        """Built from ``machine_ids.tolist()``; the same dict the
        per-numpy-scalar walk gave, for generated and given ids."""
        renamed = dataclasses.replace(
            _builder().build_columns(4),
            machine_ids=np.array(
                [f"rack{index % 2}.host-{index}" for index in range(4)]
            ),
        )
        for columns in (_builder().build_columns(40), renamed):
            expected = {
                str(machine_id): index
                for index, machine_id in enumerate(columns.machine_ids)
            }
            built = columns._machine_index_map()
            assert built == expected
            assert list(built) == list(expected)
            assert all(type(key) is str for key in built)
        assert renamed.core_index("rack1.host-3/c02") == (
            renamed.machine_core_range(3)[0] + 2
        )


def _event_sha(result):
    payload = {
        "events": [list(row) for row in _event_stream(result)],
        "quarantined": sorted(result.quarantined_cores),
        "total_corruptions": result.total_corruptions,
    }
    return digest(payload)


class TestSimulatorParity:
    CONFIG = SimulatorConfig(horizon_days=60.0, warmup_days=0.0)

    @staticmethod
    def _parity_builder():
        return _builder(products=_boosted_products())

    def _columnar_result(self):
        columns = self._parity_builder().build_columns(150)
        return FleetSimulator(columns, config=self.CONFIG, seed=3).run()

    def test_production_tick_digest_pinned(self):
        assert _event_sha(self._columnar_result()) == (
            PINS["fleet_events"]["production"]
        )

    def test_scalar_reference_digest_pinned(self):
        columns = self._parity_builder().build_columns(150)
        result = ScalarReferenceSimulator(
            columns, config=self.CONFIG, seed=3
        ).run()
        assert _event_sha(result) == PINS["fleet_events"]["reference"]

    def test_truth_derived_from_columns(self):
        columns = _builder().build_columns(40)
        sim = FleetSimulator(
            columns,
            config=SimulatorConfig(horizon_days=1.0, warmup_days=0.0),
            seed=1,
        )
        assert sim.truth.n_mercurial == columns.n_mercurial
        assert sorted(sim.truth.mercurial_core_ids) == sorted(
            columns.core_id(int(flat)) for flat in columns.merc_core
        )


class TestMercurialViews:
    def test_merc_defects_match_materialized_cores(self):
        """The lazy path (``merc_sample_seed``) regenerates exactly the
        defects the builder sampled."""
        columns = _builder(products=_boosted_products()).build_columns(60)
        assert columns.n_mercurial > 0
        lazy = dataclasses.replace(columns, _merc_defects=None)
        for index in range(columns.n_mercurial):
            assert tuple(repr(d) for d in lazy.merc_defects(index)) == (
                tuple(repr(d) for d in columns.merc_defects(index))
            )


def _result_sha(result):
    """Digest of everything a campaign reports: the event stream plus
    the per-core quarantine days and detection latencies that
    :func:`_event_sha` leaves out, and the three effort totals."""
    payload = {
        "events": [list(row) for row in _event_stream(result)],
        "quarantine_day": sorted(result.quarantine_day.items()),
        "detection_latency_days": sorted(
            result.detection_latency_days.items()
        ),
        "total_corruptions": result.total_corruptions,
        "app_visible_corruptions": result.app_visible_corruptions,
        "screening_ops_spent": result.screening_ops_spent,
    }
    return digest(payload)


class TestResultDigests:
    """Whole-result digests of both ticks on four generated fleets
    (build seed × prevalence boost; 400 machines, 60 warmup days, 120
    horizon days, sim seed 5).  Warmup makes the suspicion loop run
    long past each quarantine, so a change to how quarantined cores
    are tracked that moves any day, latency or draw fails here."""

    CONFIG = SimulatorConfig(horizon_days=120.0, warmup_days=60.0)
    SIMULATORS = {
        "production": FleetSimulator,
        "reference": ScalarReferenceSimulator,
    }

    @pytest.mark.parametrize("key", sorted(PINS["fleet_results"]))
    def test_result_digest_pinned(self, key):
        build_seed, boost, tick = key
        columns = _builder(
            seed=build_seed, products=_boosted_products(boost)
        ).build_columns(400)
        result = self.SIMULATORS[tick](
            columns, config=self.CONFIG, seed=5
        ).run()
        assert result.quarantine_day
        assert _result_sha(result) == PINS["fleet_results"][key]
