"""Columnar fleet substrate: build parity, adapters, simulator parity.

The simulator runs on columns only; an object fleet enters through
``FleetColumns.from_machines`` and leaves through ``to_machines()``.
Neither hop may change a single draw: the event-stream digests below
were captured at the commit that still had the object tick tiers
(PR 15's tree), for the production tick and for the scalar reference.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.fleet.columns import DEFECT_MODE_CODES, FleetColumns, defect_mode_code
from repro.fleet.population import FleetBuilder, ground_truth_map
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.reference import ScalarReferenceSimulator
from repro.fleet.simulator import FleetSimulator, SimulatorConfig

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


def _machine_fingerprint(machine):
    return (
        machine.machine_id,
        machine.product.sku,
        machine.deploy_day,
        tuple(
            (
                core.core_id,
                core.is_mercurial,
                tuple(repr(d) for d in core.defects),
            )
            for core in machine.cores
        ),
    )


def _event_stream(result):
    return [
        (e.time_days, e.machine_id, e.core_id, str(e.kind), str(e.reporter),
         e.detail)
        for e in result.events
    ]


class TestBuildParity:
    def test_to_machines_matches_object_builder(self):
        machines, truth = _builder().build(N_MACHINES)
        columns = _builder().build_columns(N_MACHINES)
        col_machines, col_truth = columns.to_machines()
        assert [_machine_fingerprint(m) for m in machines] == [
            _machine_fingerprint(m) for m in col_machines
        ]
        assert truth.n_mercurial == col_truth.n_mercurial
        assert sorted(truth.mercurial_core_ids) == sorted(
            col_truth.mercurial_core_ids
        )
        assert truth.onset_days_by_core == col_truth.onset_days_by_core

    def test_ground_truth_map_matches_object(self):
        machines, _ = _builder().build(N_MACHINES)
        columns = _builder().build_columns(N_MACHINES)
        assert columns.ground_truth_map() == ground_truth_map(machines)

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
    def test_from_machines_round_trips_ids(self):
        machines, _ = _builder().build(20)
        columns = FleetColumns.from_machines(machines)
        assert columns.n_cores == sum(len(m.cores) for m in machines)
        assert columns.ground_truth_map() == ground_truth_map(machines)

    def test_from_machines_indexes_off_pattern_core_ids(self):
        # The simulator finds cores through core_index(); an adapted
        # fleet whose ids are not ``<machine>/cNN`` must still resolve.
        machines, _ = _builder().build(3)
        for machine in machines:
            for within, core in enumerate(machine.cores):
                core.core_id = f"socket-{machine.machine_id}-{within}"
        columns = FleetColumns.from_machines(machines)
        for flat in (0, 7, columns.n_cores - 1):
            assert columns.core_index(columns.core_id(flat)) == flat
        assert columns.core_id(7) == machines[0].cores[7].core_id
        assert columns.core_index("m00000/c07") is None

    def test_adapted_columns_refuse_to_materialize(self):
        machines, _ = _builder().build(5)
        columns = FleetColumns.from_machines(machines)
        with pytest.raises(ValueError):
            columns.to_machines()

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

        machines, _ = _builder().build(3)
        for machine in machines:
            for within, core in enumerate(machine.cores):
                core.core_id = f"socket-{machine.machine_id}-{within}"
        adapted = FleetColumns.from_machines(machines)
        assert adapted.core_index(adapted.core_id(7)) == 7
        assert adapted.thaw()._explicit_core_index_map() is \
            adapted._explicit_core_index_map()

    def test_machine_index_map_is_the_str_keyed_enumeration(self):
        """Built from ``machine_ids.tolist()``; the same dict the
        per-numpy-scalar walk gave, for generated and adopted ids."""
        machines, _ = _builder().build(4)
        for index, machine in enumerate(machines):
            machine.machine_id = f"rack{index % 2}.host-{index}"
            for within, core in enumerate(machine.cores):
                core.core_id = f"{machine.machine_id}/c{within:02d}"
        adapted = FleetColumns.from_machines(machines)
        assert adapted._core_ids is None  # still the <machine>/cNN pattern
        for columns in (_builder().build_columns(40), adapted):
            expected = {
                str(machine_id): index
                for index, machine_id in enumerate(columns.machine_ids)
            }
            built = columns._machine_index_map()
            assert built == expected
            assert list(built) == list(expected)
            assert all(type(key) is str for key in built)
        assert adapted.core_index("rack1.host-3/c02") == (
            adapted.machine_core_range(3)[0] + 2
        )


def _event_sha(result):
    payload = {
        "events": [list(row) for row in _event_stream(result)],
        "quarantined": sorted(result.quarantined_cores),
        "total_corruptions": result.total_corruptions,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


class TestSimulatorParity:
    CONFIG = SimulatorConfig(horizon_days=60.0, warmup_days=0.0)
    #: the production tick on the parity fleet (150 machines, x40
    #: prevalence, build seed 11, sim seed 3)
    PRODUCTION_SHA = (
        "cd01d4e99202ddddc57abdea19735cabef8c6eebe1b201a9d5550305bb847e48"
    )
    #: the scalar per-core tick on the same fleet
    REFERENCE_SHA = (
        "ec600510c372a79d57e4cb86191c8e0fd6e8d3cdc1912bacc5d9341301c31e9a"
    )

    @staticmethod
    def _parity_builder():
        return _builder(products=_boosted_products())

    def _object_result(self):
        machines, truth = self._parity_builder().build(150)
        return FleetSimulator(machines, truth, self.CONFIG, seed=3).run()

    def _columnar_result(self):
        columns = self._parity_builder().build_columns(150)
        return FleetSimulator(columns, config=self.CONFIG, seed=3).run()

    def test_event_streams_bit_identical(self):
        obj = self._object_result()
        col = self._columnar_result()
        assert _event_stream(obj) == _event_stream(col)
        assert sorted(obj.quarantined_cores) == sorted(col.quarantined_cores)
        assert obj.quarantine_day == col.quarantine_day
        assert obj.detection_latency_days == col.detection_latency_days
        assert obj.total_corruptions == col.total_corruptions
        assert obj.app_visible_corruptions == col.app_visible_corruptions
        assert obj.screening_ops_spent == col.screening_ops_spent

    def test_production_tick_digest_pinned(self):
        assert _event_sha(self._columnar_result()) == self.PRODUCTION_SHA
        # an object fleet handed in (truth derived, not passed)...
        machines, _ = self._parity_builder().build(150)
        assert _event_sha(
            FleetSimulator(machines, config=self.CONFIG, seed=3).run()
        ) == self.PRODUCTION_SHA
        # ...and the explicit to_machines() round trip
        machines, truth = (
            self._parity_builder().build_columns(150).to_machines()
        )
        assert _event_sha(
            FleetSimulator(machines, truth, self.CONFIG, seed=3).run()
        ) == self.PRODUCTION_SHA

    def test_scalar_reference_digest_pinned(self):
        columns = self._parity_builder().build_columns(150)
        result = ScalarReferenceSimulator(
            columns, config=self.CONFIG, seed=3
        ).run()
        assert _event_sha(result) == self.REFERENCE_SHA

    def test_simulator_does_not_write_back_into_objects(self):
        machines, truth = self._parity_builder().build(150)
        result = FleetSimulator(machines, truth, self.CONFIG, seed=3).run()
        assert result.quarantined_cores
        assert all(core.online for m in machines for core in m.cores)
        assert all(core.age_days == 0.0 for m in machines for core in m.cores)

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

    def test_explicit_truth_wins(self):
        machines, truth = _builder().build(5)
        sim = FleetSimulator(machines, truth, self.CONFIG, seed=1)
        assert sim.truth is truth


class TestMercurialViews:
    def test_merc_defects_match_materialized_cores(self):
        columns = _builder(products=_boosted_products()).build_columns(60)
        machines, _ = _builder(products=_boosted_products()).build(60)
        core_by_id = {
            c.core_id: c for m in machines for c in m.cores
        }
        assert columns.n_mercurial > 0
        for index in range(columns.n_mercurial):
            flat = int(columns.merc_core[index])
            core = core_by_id[columns.core_id(flat)]
            assert tuple(repr(d) for d in columns.merc_defects(index)) == (
                tuple(repr(d) for d in core.defects)
            )
