"""Exact per-pass counts of the four benchmark workloads at seed 0.

Wall clock cannot gate on shared runners; these counts repeat exactly.
Each workload's shape is rebuilt here (its constants mirror
``benchmarks/perf/workloads.py``) and run once under the probes of
``tests/conftest.py``.  Every count is semantic: ops through
``Core.execute``, Merkle trees built, per-key monitor scans, golden
CRCs computed.  Python call totals, which differ between interpreter
versions, are never pinned.  The fast-path counts need the golden
cache, so the table runs under ``kernels_on``.
"""

import sys

import numpy as np
import pytest

from repro.chaos import ChaosSchedule
from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import FleetScreener, distill
from repro.engine import run_fleet_trials
from repro.fleet.population import FleetBuilder
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from repro.mitigation.instrcheck import IthicaCheckedCore
from repro.serving import (
    CampaignConfig,
    HardeningConfig,
    ScaleConfig,
    ScaleHardening,
    ServeScaleCampaign,
    ServingCampaign,
    build_scale_fleet,
    build_serving_fleet,
)
from repro.silicon.catalog import NAMED_CASES, named_case
from repro.silicon.core import Core
from repro.silicon.errors import MachineCheckError
from repro.silicon.golden import golden_cache
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    antientropy,
    build_storage_fleet,
)
from repro.workloads import hashing
from repro.workloads.generator import STANDARD_MIX

#: per pass at seed 0: what each probe counted
COUNTS = {
    "op_stream": {"execute": 21_906, "merkle_trees": 0, "monitor_scans": 0},
    "serve_campaign": {"execute": 300, "merkle_trees": 0, "monitor_scans": 0},
    "store_campaign": {"execute": 1_226, "merkle_trees": 6, "monitor_scans": 27},
    "fleet_grid": {"execute": 0, "merkle_trees": 0, "monitor_scans": 0},
}

#: per pass at seed 0: ``golden_crc64`` calls, through every module
#: that binds it (``crc64``'s credit path, the storage ``host_crc64``)
GOLDEN_CRCS = {
    "op_stream": 10,
    "serve_campaign": 24,
    "store_campaign": 4_819,
    "fleet_grid": 0,
}

MACHINES = 4
CORES_PER_MACHINE = 4
DEFECT_RATE = 0.05
ONSET_AGE_DAYS = 400.0


#: ground truth of one ``op_stream`` pass at seed 0, which no speed-up
#: may move: ops every core executed, and the two ITHICA checkers' stats
OP_STREAM_GROUND_TRUTH = {
    "silicon.ops": 357_780,
    "payload_ops": 21_744,
    "check_ops": 7_176,
    "mismatches": 1,
}


def _op_stream(seed):
    return _op_stream_rack(seed)[0]


def _op_stream_rack(seed):
    """Every standard-mix unit on a healthy core, each named case and two
    ITHICA-checked cores; the two heavy units on their one bad core.
    Returns the pass, its plain cores and its checkers."""
    heavy_unit_cores = {
        "compression": {"rack/string_bit_flipper"},
        "crypto": {"rack/self_inverting_aes"},
    }
    healthy = Core("rack/healthy")
    mercurial = [
        Core(f"rack/{case}", defects=named_case(case),
             rng=np.random.default_rng([seed, index]))
        for index, case in enumerate(NAMED_CASES)
    ]
    checked = [
        IthicaCheckedCore(core, 0.33, seed=seed + index)
        for index, core in enumerate((
            Core("rack/ithica_healthy"),
            Core("rack/ithica_mercurial",
                 defects=named_case("string_bit_flipper"),
                 rng=np.random.default_rng([seed, len(NAMED_CASES)])),
        ))
    ]

    def run():
        for index, spec in enumerate(STANDARD_MIX):
            work = spec.build(seed * len(STANDARD_MIX) + index)
            work(healthy)
            only_on = heavy_unit_cores.get(spec.name)
            for core in (*mercurial, *checked):
                if only_on is None or core.core_id in only_on:
                    try:
                        work(core)
                    except MachineCheckError:
                        pass

    cores = [healthy, *mercurial, *(checker.inner for checker in checked)]
    return run, cores, checked


#: ground truth of one ``serve_campaign`` pass at seed 0: ops the two
#: runners' client cores executed for the e2e checksums
SERVE_CLIENT_OPS = 742_080


def _serve_campaign(seed):
    return _serve_campaign_pair(seed)[0]


def _serve_campaign_pair(seed):
    """The single-queue campaign for 800 ticks, then the sharded one for
    150, each under its standard chaos script.  Returns the pass and its
    two client cores."""
    serve_ticks, scale_ticks = 800, 150
    machines, bad_core_id = build_serving_fleet(
        n_machines=MACHINES, cores_per_machine=CORES_PER_MACHINE,
        base_rate=DEFECT_RATE, onset_days=ONSET_AGE_DAYS, seed=seed + 7,
    )
    campaign = ServingCampaign(
        machines, CampaignConfig(ticks=serve_ticks),
        HardeningConfig.hardened(), seed=seed + 3,
    )
    victim = next(
        replica.core_id for replica in campaign.router.replicas
        if replica.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.standard(
        bad_core_id, victim, serve_ticks, onset_age_days=ONSET_AGE_DAYS
    )
    scale_machines, bad_core_ids = build_scale_fleet(
        n_machines=MACHINES, cores_per_machine=CORES_PER_MACHINE,
        prevalence=0.2, base_rate=DEFECT_RATE, seed=seed + 7,
    )
    scale = ServeScaleCampaign(
        scale_machines, ScaleConfig(ticks=scale_ticks),
        ScaleHardening.full(), seed=seed + 3,
    )
    shards = scale.cluster.shards
    shard_loss = [replica.core_id for replica in shards[0].router.replicas]
    storm = [
        replica.core_id for replica in shards[1 % len(shards)].router.replicas
        if replica.core_id not in bad_core_ids
    ][:2]
    scale.chaos = ChaosSchedule.serve_scale(
        bad_core_ids, shard_loss, storm, scale_ticks
    )

    def run():
        campaign.run()
        scale.run()

    return run, (campaign.client_core, scale.client_core)


def _store_campaign(seed):
    """The full protection stack for 300 ticks under its chaos script."""
    ticks = 300
    machines, bad_core_id = build_storage_fleet(
        n_machines=MACHINES, cores_per_machine=CORES_PER_MACHINE,
        base_rate=DEFECT_RATE, onset_days=ONSET_AGE_DAYS, seed=seed + 7,
    )
    campaign = StorageCampaign(
        machines, StorageProtections.protected(),
        StorageCampaignConfig(ticks=ticks), seed=seed + 3,
    )
    victim = next(
        replica.core_id for replica in campaign.store.replicas
        if replica.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.storage_standard(
        bad_core_id, victim, ticks, onset_age_days=ONSET_AGE_DAYS
    )
    return campaign.run


def _fleet_grid(seed):
    """Two inline trials of a 120-day simulated horizon over 12 000
    machines, screened every five days.  Distilling the battery executes
    ops, so it is part of the fixture and not of the pass."""
    horizon_days = 120
    battery = distill(TestCorpus.standard())
    columns = FleetBuilder(seed=seed).build_columns(12_000)

    def trial(trial, columns):
        screened = columns.thaw()
        FleetSimulator(
            columns, config=SimulatorConfig(horizon_days=float(horizon_days)),
            seed=trial.seed,
        ).run()
        screener = FleetScreener(battery, env_boost=6.0)
        rng = np.random.default_rng(trial.seed)
        for day in range(0, horizon_days, 5):
            screener.screen(screened, float(day), rng)

    return lambda: run_fleet_trials(trial, columns, 2, seed=seed, workers=1)


WORKLOADS = {
    "op_stream": _op_stream,
    "serve_campaign": _serve_campaign,
    "store_campaign": _store_campaign,
    "fleet_grid": _fleet_grid,
}


@pytest.mark.usefixtures("kernels_on")
@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_one_pass_at_seed_0_counts_exactly(workload, execute_calls, count_calls):
    run = WORKLOADS[workload](0)
    execute_calls.clear()
    probes = {
        "merkle_trees": count_calls(antientropy, "build_merkle_tree"),
        "monitor_scans": count_calls(StorageCampaign, "_scan_keys"),
    }
    run()
    counts = {"execute": len(execute_calls)}
    counts.update((name, len(calls)) for name, calls in probes.items())
    assert counts == COUNTS[workload]


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "per_op"])
def test_op_stream_ground_truth_does_not_move(kernels):
    with golden_cache(kernels):
        run, cores, checked = _op_stream_rack(0)
        run()
    counts = {"silicon.ops": sum(core.ops_executed for core in cores)}
    for field in ("payload_ops", "check_ops", "mismatches"):
        counts[field] = sum(getattr(c.stats, field) for c in checked)
    assert counts == OP_STREAM_GROUND_TRUTH


def _count_golden_crcs(count_calls):
    """One probe per module global bound to ``golden_crc64``."""
    golden_crc64 = hashing.golden_crc64
    return [
        count_calls(module, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro.")
        for name, value in list(vars(module).items())
        if value is golden_crc64
    ]


@pytest.mark.usefixtures("kernels_on")
@pytest.mark.parametrize("workload", sorted(GOLDEN_CRCS))
def test_one_pass_at_seed_0_computes_golden_crcs_exactly(workload, count_calls):
    run = WORKLOADS[workload](0)
    probes = _count_golden_crcs(count_calls)
    run()
    assert sum(map(len, probes)) == GOLDEN_CRCS[workload]


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "per_op"])
def test_serve_client_ops_do_not_move(kernels):
    with golden_cache(kernels):
        run, clients = _serve_campaign_pair(0)
        run()
    assert sum(core.ops_executed for core in clients) == SERVE_CLIENT_OPS
