"""Fleet population synthesis.

Builds a fleet of machines with ground-truth mercurial cores drawn from
each SKU's prevalence and the defect archetype catalog.  The builder is
fully seeded: the same seed reproduces the same fleet, core for core.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.events import format_core_id
from repro.fleet.columns import FleetColumns, defect_mode_code
from repro.fleet.product import CpuProduct, DEFAULT_PRODUCTS
from repro.silicon.catalog import sample_core_defects


@dataclasses.dataclass
class FleetGroundTruth:
    """What the experimenter knows and the detectors must discover."""

    mercurial_core_ids: set[str]
    onset_days_by_core: dict[str, float]

    @property
    def n_mercurial(self) -> int:
        return len(self.mercurial_core_ids)


class FleetBuilder:
    """Seeded generator of machine populations.

    Args:
        products: SKU portfolio; machines are drawn from it uniformly.
        seed: master seed; everything derives from it.
        deployment_window: (earliest, latest) deploy day; machines enter
            service uniformly over this window.  Negative values mean
            "deployed before the campaign starts", so the fleet carries
            a realistic age spread (the paper's fleet had machines of
            "various ages", §4).
    """

    def __init__(
        self,
        products: Sequence[CpuProduct] = DEFAULT_PRODUCTS,
        seed: int = 0,
        deployment_window: tuple[float, float] = (0.0, 0.0),
        technology_refresh: bool = False,
    ):
        """
        Args:
            technology_refresh: when True, newer products (later in the
                ``products`` list) deploy later in the window, modeling
                an ongoing technology refresh.  Since newer process
                nodes carry higher defect prevalence (§5's scaling
                argument), the fleet's mercurial-core influx *grows*
                over the campaign — one of the drivers behind Fig. 1's
                gradually-increasing automated detection rate.
        """
        if deployment_window[0] > deployment_window[1]:
            raise ValueError("deployment_window must be (earliest, latest)")
        self.products = list(products)
        probabilities = np.ones(len(products))
        self._probabilities = probabilities / probabilities.sum()
        self.seed = seed
        self.deployment_window = deployment_window
        self.technology_refresh = technology_refresh

    def _population_plan(
        self, n_machines: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw every random decision for a fleet as numpy batches.

        The single source of the builder's RNG-consumption order.

        Returns ``(product_indices, deploy_days, cores_per_machine,
        mercurial_flags, mercurial_seeds)``; column 0 of the seeds
        samples each mercurial core's defects.
        """
        if n_machines < 1:
            raise ValueError("need at least one machine")
        root = np.random.default_rng(self.seed)
        n_products = len(self.products)
        product_indices = root.choice(
            n_products, size=n_machines, p=self._probabilities
        )
        earliest, latest = self.deployment_window
        if latest <= earliest:
            deploy_days = np.full(n_machines, float(earliest))
        elif self.technology_refresh and n_products > 1:
            # Newer SKUs deploy in a window segment shifted later;
            # segments overlap so the transition is gradual.
            span = latest - earliest
            k = product_indices.astype(float)
            segment_start = earliest + span * k / (n_products + 1)
            segment_end = earliest + span * (k + 2) / (n_products + 1)
            deploy_days = root.uniform(segment_start, segment_end)
        else:
            deploy_days = root.uniform(earliest, latest, size=n_machines)

        cores_per_machine = np.array(
            [p.cores_per_machine for p in self.products]
        )[product_indices]
        prevalence = np.array(
            [p.core_prevalence for p in self.products]
        )[product_indices]
        total_cores = int(cores_per_machine.sum())
        mercurial_flags = (
            root.random(total_cores) < np.repeat(prevalence, cores_per_machine)
        )
        n_mercurial = int(mercurial_flags.sum())
        # Two per core, one unused: drawing one would resample every defect.
        mercurial_seeds = root.integers(2**63, size=(n_mercurial, 2))
        return (
            product_indices,
            deploy_days,
            cores_per_machine,
            mercurial_flags,
            mercurial_seeds,
        )

    def build_columns(self, n_machines: int) -> FleetColumns:
        """Create the fleet directly as columns, skipping objects entirely.

        The only Python loop is over the *mercurial* population — a
        handful of cores per hundred thousand at paper prevalence —
        which is what pushes fleet synthesis to O(1M) cores/s.
        """
        (
            product_indices,
            deploy_days,
            cores_per_machine,
            mercurial_flags,
            mercurial_seeds,
        ) = self._population_plan(n_machines)

        machine_core_start = np.zeros(n_machines + 1, dtype=np.int64)
        np.cumsum(cores_per_machine, out=machine_core_start[1:])
        total_cores = int(machine_core_start[-1])
        core_machine = np.repeat(
            np.arange(n_machines, dtype=np.int32), cores_per_machine
        )

        merc_core = np.nonzero(mercurial_flags)[0].astype(np.int64)
        n_mercurial = int(merc_core.shape[0])
        merc_sample_seed = mercurial_seeds[:, 0].astype(np.uint64)
        merc_onset = np.zeros(n_mercurial, dtype=np.float64)
        merc_defect_mode = np.zeros(n_mercurial, dtype=np.int16)
        merc_defects: list = []
        for index in range(n_mercurial):
            flat = int(merc_core[index])
            machine_index = int(core_machine[flat])
            product = self.products[int(product_indices[machine_index])]
            within = flat - int(machine_core_start[machine_index])
            core_id = format_core_id(f"m{machine_index:05d}", within)
            defects = tuple(
                sample_core_defects(
                    np.random.default_rng(int(merc_sample_seed[index])),
                    core_id, onset=product.onset,
                )
            )
            merc_defects.append(defects)
            merc_onset[index] = min(d.aging.onset_days for d in defects)
            merc_defect_mode[index] = defect_mode_code(defects)

        return FleetColumns(
            products=tuple(self.products),
            machine_product=product_indices.astype(np.int16),
            machine_deploy_day=np.asarray(deploy_days, dtype=np.float64),
            machine_core_start=machine_core_start,
            core_machine=core_machine,
            mercurial=mercurial_flags,
            online=np.ones(total_cores, dtype=bool),
            merc_core=merc_core,
            merc_onset=merc_onset,
            merc_defect_mode=merc_defect_mode,
            merc_age=np.zeros(n_mercurial, dtype=np.float64),
            merc_sample_seed=merc_sample_seed,
            _merc_defects=merc_defects,
        )

