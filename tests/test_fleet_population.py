"""Products, population synthesis, machines."""

import numpy as np
import pytest

from repro.fleet.machine import Machine
from repro.fleet.population import FleetBuilder, ground_truth_map
from repro.fleet.product import CpuProduct, DEFAULT_PRODUCTS
from repro.silicon.aging import WeibullOnset
from repro.silicon.catalog import named_case
from repro.silicon.core import Chip, Core


class TestProducts:
    def test_default_portfolio_sane(self):
        assert len(DEFAULT_PRODUCTS) >= 3
        for product in DEFAULT_PRODUCTS:
            assert product.cores_per_machine >= 16
            assert 0 < product.core_prevalence < 1e-3

    def test_machine_prevalence_exceeds_core_prevalence(self):
        product = DEFAULT_PRODUCTS[0]
        assert product.machine_prevalence > product.core_prevalence

    def test_newer_nodes_have_higher_prevalence(self):
        prevalences = [p.core_prevalence for p in DEFAULT_PRODUCTS]
        assert prevalences == sorted(prevalences)

    def test_blended_prevalence_in_paper_band(self):
        """'a few mercurial cores per several thousand machines'."""
        per_kmachine = 1000 * sum(
            p.machine_prevalence for p in DEFAULT_PRODUCTS
        ) / len(DEFAULT_PRODUCTS)
        assert 0.2 <= per_kmachine <= 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuProduct("v", "s", cores_per_machine=0, core_prevalence=0.1)
        with pytest.raises(ValueError):
            CpuProduct("v", "s", cores_per_machine=4, core_prevalence=2.0)


class TestFleetBuilder:
    def test_deterministic_under_seed(self):
        a_machines, a_truth = FleetBuilder(seed=5).build(200)
        b_machines, b_truth = FleetBuilder(seed=5).build(200)
        assert a_truth.mercurial_core_ids == b_truth.mercurial_core_ids
        assert [m.product.sku for m in a_machines] == \
            [m.product.sku for m in b_machines]

    def test_ground_truth_matches_cores(self):
        machines, truth = FleetBuilder(seed=3).build(300)
        actual = {
            core.core_id
            for machine in machines
            for core in machine.cores
            if core.is_mercurial
        }
        assert actual == truth.mercurial_core_ids

    def test_incidence_scales_with_prevalence(self):
        dense = [
            CpuProduct("v", "dense", 32, core_prevalence=5e-3,
                       onset=WeibullOnset())
        ]
        machines, truth = FleetBuilder(products=dense, seed=1).build(300)
        assert truth.n_mercurial > 10

    def test_deployment_window(self):
        builder = FleetBuilder(seed=2, deployment_window=(-100.0, 50.0))
        machines, _ = builder.build(100)
        deploys = [m.deploy_day for m in machines]
        assert min(deploys) >= -100.0 and max(deploys) <= 50.0

    def test_technology_refresh_orders_deployments(self):
        builder = FleetBuilder(
            seed=4, deployment_window=(0.0, 1000.0), technology_refresh=True
        )
        machines, _ = builder.build(800)
        by_product: dict[str, list[float]] = {}
        for machine in machines:
            by_product.setdefault(machine.product.sku, []).append(
                machine.deploy_day
            )
        means = [
            sum(by_product[p.sku]) / len(by_product[p.sku])
            for p in DEFAULT_PRODUCTS
            if p.sku in by_product
        ]
        assert means == sorted(means)  # newer SKUs deploy later on average

    def test_ground_truth_map(self):
        machines, truth = FleetBuilder(seed=6).build(100)
        truth_map = ground_truth_map(machines)
        assert sum(truth_map.values()) == truth.n_mercurial

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FleetBuilder(deployment_window=(10.0, 0.0))

    def test_needs_positive_machines(self):
        with pytest.raises(ValueError):
            FleetBuilder().build(0)


class TestMachine:
    def _machine(self, defective=False):
        cores = [Core(f"mx/c{i}", rng=np.random.default_rng(i)) for i in range(4)]
        if defective:
            cores[2] = Core(
                "mx/c2", defects=named_case("string_bit_flipper"),
                rng=np.random.default_rng(9),
            )
        return Machine("mx", DEFAULT_PRODUCTS[0], Chip(cores), deploy_day=-30.0)

    def test_age_days(self):
        machine = self._machine()
        assert machine.age_days(now_days=70.0) == 100.0

    def test_advance_to_syncs_core_ages(self):
        machine = self._machine()
        machine.advance_to(20.0)
        assert all(core.age_days == 50.0 for core in machine.cores)

    def test_mercurial_detection(self):
        assert not self._machine().is_mercurial
        assert self._machine(defective=True).is_mercurial

    def test_online_cores_excludes_quarantined(self):
        machine = self._machine()
        machine.cores[0].set_online(False)
        assert len(machine.online_cores()) == 3
