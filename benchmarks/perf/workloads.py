"""The four benchmark workloads.

Each workload is a fixture built once per worker (timed as part of
``setup_s``) and a *pass*: one fixed simulated job whose every input
derives from the pass seed.  A pass times only the job and returns the
job's simulated outputs beside it, so the caller can check that they
repeat exactly — a change that only speeds the simulator may not move
them.

Why these four (``BENCHMARK.json`` carries the short form):

- ``op_stream`` is the per-op floor under ``Core.execute`` and nothing
  else: no campaign, detection or fleet code runs.
- ``serve_campaign`` and ``store_campaign`` use the same ``silicon`` and
  ``workloads`` layers differently — un-memoized CRC/hash scalar streams
  against AES through the golden memo — so an op-path change that helps
  one and costs the other shows.
- ``fleet_grid`` bypasses ``silicon`` entirely: all of its time is numpy
  in ``fleet``/``detection`` plus ``engine`` fan-out, so an op-path
  optimisation must leave it unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
from typing import Callable

import numpy as np

from repro.chaos import ChaosSchedule
from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import DistilledBattery, FleetScreener, distill
from repro.engine import Trial, run_fleet_trials
from repro.fleet.columns import FleetColumns
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
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    build_storage_fleet,
)
from repro.workloads.generator import STANDARD_MIX

#: the pool width the one pooled workload asks for
POOL_WORKERS = min(2, os.cpu_count() or 1)


@dataclasses.dataclass(slots=True)
class PassResult:
    """One pass: the job's size, its host time and what it computed.

    Attributes:
        work: units of work done (the workload's ``unit``).
        seconds: host time of the job alone.
        payload: the simulated outputs, canonical-JSON-able; their
            sha256 is the pass fingerprint.
        counts: exact simulated statistics, keyed by the per-layer
            metric they feed.
    """

    work: int
    seconds: float
    payload: dict
    counts: dict[str, float]

    @property
    def fingerprint(self) -> str:
        blob = json.dumps(self.payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass(frozen=True, slots=True)
class Workload:
    """A named workload: ``build(seed)`` the fixture, ``run(fixture,
    seed, workers)`` one pass; ``pool_width`` is the ``workers`` a pass
    gets unless a round overrides it."""

    name: str
    build: Callable[[int], object]
    run: Callable[[object, int, int], PassResult]
    pool_width: int = 1


def _silicon_counts(cores: list[Core]) -> dict[str, float]:
    return {
        "silicon.ops": sum(core.ops_executed for core in cores),
        "silicon.corruptions": sum(core.corruptions_induced for core in cores),
        "silicon.machine_checks": sum(
            core.machine_checks_raised for core in cores
        ),
    }


def _event_triples(events) -> list[list]:
    return [
        [event.kind.name, event.time_days, event.core_id] for event in events
    ]


def _fleet_cores(machines) -> list[Core]:
    return [core for machine in machines for core in machine.cores]


# ---------------------------------------------------------------------
# op_stream
# ---------------------------------------------------------------------

#: ITHICA's duplicate-execution sampling rate (the E18 default)
ITHICA_RATE = 0.33

#: the two standard-mix units that do not run on the whole rack.
#: ``compression`` alone is 71 % of the mix's ops (94 k of 133 k per
#: core) and ``crypto`` most of the rest, so each runs on the healthy
#: core and on the one mercurial core whose defect sits in its data path
#: (the load/store bit-flipper, the AES S-box swap) — the healthy-core
#: AES fast path and the slow path beside it — and the seven light units
#: are not drowned by them.
HEAVY_UNIT_CORES = {
    "compression": frozenset({"rack/string_bit_flipper"}),
    "crypto": frozenset({"rack/self_inverting_aes"}),
}


def _op_stream_pass(_fixture: object, seed: int, _workers: int) -> PassResult:
    start = time.perf_counter()
    healthy = Core("rack/healthy")
    mercurial = [
        Core(
            f"rack/{case}", defects=named_case(case),
            rng=np.random.default_rng([seed, index]),
        )
        for index, case in enumerate(NAMED_CASES)
    ]
    wrapped = [
        Core("rack/ithica_healthy"),
        Core(
            "rack/ithica_mercurial",
            defects=named_case("string_bit_flipper"),
            rng=np.random.default_rng([seed, len(NAMED_CASES)]),
        ),
    ]
    checked = [
        IthicaCheckedCore(core, ITHICA_RATE, seed=seed + index)
        for index, core in enumerate(wrapped)
    ]

    outcomes = []
    for index, spec in enumerate(STANDARD_MIX):
        work = spec.build(seed * len(STANDARD_MIX) + index)
        # the healthy core's digest is the reference, computed once per unit
        golden = work(healthy).output_digest
        outcomes.append([spec.name, healthy.core_id, golden])
        only_on = HEAVY_UNIT_CORES.get(spec.name)
        for core in (*mercurial, *checked):
            if only_on is not None and core.core_id not in only_on:
                continue
            try:
                result = work(core)
            except MachineCheckError:
                outcomes.append([spec.name, core.core_id, "machine-check"])
                continue
            outcomes.append([
                spec.name, core.core_id, result.output_digest == golden,
                result.output_digest, result.app_detected, result.crashed,
            ])
    seconds = time.perf_counter() - start

    counts = _silicon_counts([healthy, *mercurial, *wrapped])
    counts["mitigation.payload_ops"] = sum(
        core.stats.payload_ops for core in checked
    )
    counts["mitigation.checked_ops"] = sum(
        core.stats.check_ops for core in checked
    )
    counts["mitigation.mismatches"] = sum(
        core.stats.mismatches for core in checked
    )
    return PassResult(
        work=int(counts["silicon.ops"]),
        seconds=seconds,
        payload={"outcomes": outcomes, "counts": counts},
        counts=counts,
    )


# ---------------------------------------------------------------------
# serve_campaign
# ---------------------------------------------------------------------

FLEET_MACHINES = 4
FLEET_CORES_PER_MACHINE = 4
DEFECT_RATE = 0.05
ONSET_AGE_DAYS = 400.0
SERVE_TICKS = 800
SCALE_TICKS = 150
SCALE_PREVALENCE = 0.2


def _serve_pass(_fixture: object, seed: int, _workers: int) -> PassResult:
    start = time.perf_counter()
    machines, bad_core_id = build_serving_fleet(
        n_machines=FLEET_MACHINES,
        cores_per_machine=FLEET_CORES_PER_MACHINE,
        base_rate=DEFECT_RATE,
        onset_days=ONSET_AGE_DAYS,
        seed=seed + 7,
    )
    campaign = ServingCampaign(
        machines,
        CampaignConfig(ticks=SERVE_TICKS),
        HardeningConfig.hardened(),
        seed=seed + 3,
    )
    victim = next(
        replica.core_id for replica in campaign.router.replicas
        if replica.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.standard(
        bad_core_id, victim, SERVE_TICKS, onset_age_days=ONSET_AGE_DAYS
    )
    card = campaign.run()

    scale_machines, bad_core_ids = build_scale_fleet(
        n_machines=FLEET_MACHINES,
        cores_per_machine=FLEET_CORES_PER_MACHINE,
        prevalence=SCALE_PREVALENCE,
        base_rate=DEFECT_RATE,
        seed=seed + 7,
    )
    scale = ServeScaleCampaign(
        scale_machines,
        ScaleConfig(ticks=SCALE_TICKS),
        ScaleHardening.full(),
        seed=seed + 3,
    )
    shards = scale.cluster.shards
    shard_loss = [replica.core_id for replica in shards[0].router.replicas]
    storm = [
        replica.core_id
        for replica in shards[1 % len(shards)].router.replicas
        if replica.core_id not in bad_core_ids
    ][:2]
    scale.chaos = ChaosSchedule.serve_scale(
        bad_core_ids, shard_loss, storm, SCALE_TICKS
    )
    scale_card = scale.run()
    seconds = time.perf_counter() - start

    counts = _silicon_counts(
        _fleet_cores(machines) + _fleet_cores(scale_machines)
    )
    counts["serving.requests"] = (
        card.total_arrivals + scale_card.total_arrivals
    )
    counts["serving.ticks"] = SERVE_TICKS + SCALE_TICKS
    return PassResult(
        work=int(counts["serving.requests"]),
        seconds=seconds,
        payload={
            "scorecards": [card.to_json(), scale_card.to_json()],
            "events": [
                _event_triples(campaign.events), _event_triples(scale.events),
            ],
            "counts": counts,
        },
        counts=counts,
    )


# ---------------------------------------------------------------------
# store_campaign
# ---------------------------------------------------------------------

STORE_TICKS = 300


def _store_pass(_fixture: object, seed: int, _workers: int) -> PassResult:
    start = time.perf_counter()
    machines, bad_core_id = build_storage_fleet(
        n_machines=FLEET_MACHINES,
        cores_per_machine=FLEET_CORES_PER_MACHINE,
        base_rate=DEFECT_RATE,
        onset_days=ONSET_AGE_DAYS,
        seed=seed + 7,
    )
    campaign = StorageCampaign(
        machines,
        StorageProtections.protected(),
        StorageCampaignConfig(ticks=STORE_TICKS),
        seed=seed + 3,
    )
    victim = next(
        replica.core_id for replica in campaign.store.replicas
        if replica.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.storage_standard(
        bad_core_id, victim, STORE_TICKS, onset_age_days=ONSET_AGE_DAYS
    )
    card = campaign.run()
    seconds = time.perf_counter() - start

    counts = _silicon_counts(_fleet_cores(machines))
    counts["storage.ops"] = card.writes_attempted + card.reads_attempted
    counts["storage.ticks"] = STORE_TICKS
    counts["storage.write_amplification"] = card.write_amplification
    return PassResult(
        work=int(counts["storage.ops"]),
        seconds=seconds,
        payload={
            "scorecards": [card.to_json()],
            "events": [_event_triples(campaign.events)],
            "counts": counts,
        },
        counts=counts,
    )


# ---------------------------------------------------------------------
# fleet_grid
# ---------------------------------------------------------------------

GRID_MACHINES = 12_000
GRID_HORIZON_DAYS = 120
GRID_SCREEN_EVERY_DAYS = 5
GRID_ENV_BOOST = 6.0


#: the same trials whatever width a round runs them at, so inline and
#: pooled fingerprints are comparable
GRID_TRIALS = 2 * POOL_WORKERS


@functools.cache
def screening_battery() -> DistilledBattery:
    """The distilled screening battery.

    Its tests close over local functions and cannot be pickled, so
    trials fetch it from here: built with the fixture, before the pool
    forks, and inherited by the pool's workers.
    """
    return distill(TestCorpus.standard())


def _build_fleet_grid(seed: int) -> FleetColumns:
    screening_battery()
    return FleetBuilder(seed=seed).build_columns(GRID_MACHINES)


def fleet_trial(trial: Trial, columns: FleetColumns) -> dict:
    """One Monte-Carlo trial: a simulated horizon plus periodic screens.

    The screens run on the trial's own thawed copy, taken before the
    simulator starts.  Inline, the engine hands the trial a copy the
    simulator then mutates; pooled, the simulator thaws the read-only
    snapshot privately — screening what the simulator was handed would
    see quarantined cores in one case and not the other.
    """
    screened = columns.thaw()
    result = FleetSimulator(
        columns,
        config=SimulatorConfig(horizon_days=float(GRID_HORIZON_DAYS)),
        seed=trial.seed,
    ).run()
    screener = FleetScreener(screening_battery(), env_boost=GRID_ENV_BOOST)
    rng = np.random.default_rng(trial.seed)
    confessed: list[int] = []
    for day in range(0, GRID_HORIZON_DAYS, GRID_SCREEN_EVERY_DAYS):
        confessed.extend(
            screener.screen(screened, float(day), rng).confessed_flat
        )
    flagged = sorted(result.flagged())
    return {
        "events": len(result.events),
        "corruptions": result.total_corruptions,
        "flagged": flagged,
        "true_flagged": len(
            result.truth.mercurial_core_ids.intersection(flagged)
        ),
        "confessed": confessed,
    }


def _fleet_grid_pass(columns: FleetColumns, seed: int, workers: int) -> PassResult:
    start = time.perf_counter()
    summaries = run_fleet_trials(
        fleet_trial, columns, GRID_TRIALS, seed=seed, workers=workers,
    )
    seconds = time.perf_counter() - start

    mercurial = columns.n_mercurial * len(summaries)
    counts = {
        "fleet.sim_events": sum(s["events"] for s in summaries),
        "detection.confessions": sum(len(s["confessed"]) for s in summaries),
        "fleet.recall": (
            sum(s["true_flagged"] for s in summaries) / mercurial
            if mercurial else 0.0
        ),
        "fleet.mercurial_per_kmachine": (
            columns.n_mercurial / (columns.n_machines / 1000.0)
        ),
    }
    return PassResult(
        work=columns.n_cores * GRID_HORIZON_DAYS * len(summaries),
        seconds=seconds,
        payload={"trials": summaries, "counts": counts},
        counts=counts,
    )


def _no_fixture(_seed: int) -> None:
    return None


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("op_stream", _no_fixture, _op_stream_pass),
        Workload("serve_campaign", _no_fixture, _serve_pass),
        Workload("store_campaign", _no_fixture, _store_pass),
        Workload(
            "fleet_grid", _build_fleet_grid, _fleet_grid_pass,
            pool_width=POOL_WORKERS,
        ),
    )
}
