"""Products and population synthesis."""

import numpy as np
import pytest

from repro.fleet.population import FleetBuilder
from repro.fleet.product import CpuProduct, DEFAULT_PRODUCTS
from repro.silicon.aging import WeibullOnset


class TestProducts:
    def test_default_portfolio_sane(self):
        assert len(DEFAULT_PRODUCTS) >= 3
        for product in DEFAULT_PRODUCTS:
            assert product.cores_per_machine >= 16
            assert 0 < product.core_prevalence < 1e-3

    def test_newer_nodes_have_higher_prevalence(self):
        prevalences = [p.core_prevalence for p in DEFAULT_PRODUCTS]
        assert prevalences == sorted(prevalences)

    def test_blended_prevalence_in_paper_band(self):
        """'a few mercurial cores per several thousand machines'."""
        per_kmachine = 1000 * sum(
            1.0 - (1.0 - p.core_prevalence) ** p.cores_per_machine
            for p in DEFAULT_PRODUCTS
        ) / len(DEFAULT_PRODUCTS)
        assert 0.2 <= per_kmachine <= 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuProduct("v", "s", cores_per_machine=0, core_prevalence=0.1)
        with pytest.raises(ValueError):
            CpuProduct("v", "s", cores_per_machine=4, core_prevalence=2.0)


class TestFleetBuilder:
    def test_deterministic_under_seed(self):
        a = FleetBuilder(seed=5).build_columns(200)
        b = FleetBuilder(seed=5).build_columns(200)
        assert a.ground_truth().mercurial_core_ids == \
            b.ground_truth().mercurial_core_ids
        assert a.machine_product.tolist() == b.machine_product.tolist()

    def test_ground_truth_matches_cores(self):
        columns = FleetBuilder(seed=3).build_columns(300)
        actual = {
            columns.core_id(int(flat))
            for flat in np.nonzero(columns.mercurial)[0]
        }
        assert actual == columns.ground_truth().mercurial_core_ids

    def test_incidence_scales_with_prevalence(self):
        dense = [
            CpuProduct("v", "dense", 32, core_prevalence=5e-3,
                       onset=WeibullOnset())
        ]
        columns = FleetBuilder(products=dense, seed=1).build_columns(300)
        assert columns.n_mercurial > 10

    def test_deployment_window(self):
        builder = FleetBuilder(seed=2, deployment_window=(-100.0, 50.0))
        deploys = builder.build_columns(100).machine_deploy_day
        assert deploys.min() >= -100.0 and deploys.max() <= 50.0

    def test_technology_refresh_orders_deployments(self):
        builder = FleetBuilder(
            seed=4, deployment_window=(0.0, 1000.0), technology_refresh=True
        )
        columns = builder.build_columns(800)
        means = [
            float(columns.machine_deploy_day[columns.machine_product == p].mean())
            for p in range(len(DEFAULT_PRODUCTS))
            if (columns.machine_product == p).any()
        ]
        assert means == sorted(means)  # newer SKUs deploy later on average

    def test_ground_truth_map(self):
        columns = FleetBuilder(seed=6).build_columns(100)
        truth_map = columns.ground_truth_map()
        assert len(truth_map) == columns.n_cores
        assert sum(truth_map.values()) == columns.ground_truth().n_mercurial

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FleetBuilder(deployment_window=(10.0, 0.0))

    def test_needs_positive_machines(self):
        with pytest.raises(ValueError):
            FleetBuilder().build_columns(0)
