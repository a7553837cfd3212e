"""Isolated per-layer drives: one layer's public function in a loop.

Each drive calls a layer's entry point on inputs generated from the
seed, with nothing else of the program running, and reports the fastest
of a few repetitions — host contention only ever adds time.  The loop's
own overhead is part of every figure; it is the same on both sides of
any comparison.  Sizes are fixed, so the drives cost the same few
seconds in every traced run.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

import numpy as np

from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import (
    FleetScreener,
    RideAlongCampaign,
    RideAlongConfig,
    RideAlongScreener,
    distill,
)
from repro.engine import Trial, run_tasks, run_trials
from repro.fleet import shm
from repro.fleet.population import FleetBuilder
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from repro.mitigation.instrcheck import (
    InstrCheckCampaign,
    InstrCheckConfig,
    IthicaCheckedCore,
    build_instrcheck_fleet,
)
from repro.serving import build_scale_fleet, build_serving_fleet
from repro.silicon.catalog import named_case
from repro.silicon.core import Core
from repro.silicon.environment import NOMINAL
from repro.silicon.golden import golden_call
from repro.silicon.units import Op
from repro.workloads.generator import STANDARD_MIX

from benchmarks.perf.workloads import (
    GRID_ENV_BOOST,
    ITHICA_RATE,
    POOL_WORKERS,
    screening_battery,
)

REPETITIONS = 5
OP_CALLS = 20_000
DRIVE_MACHINES = 3_000
DRIVE_HORIZON_DAYS = 30


def _best_seconds(fn: Callable[[], object], repetitions: int = REPETITIONS) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _operand_pairs(seed: int, bits: int) -> list[tuple[int, int]]:
    values = np.random.default_rng(seed).integers(
        0, 2**bits, size=(OP_CALLS, 2), dtype=np.uint64
    )
    return [(int(a), int(b)) for a, b in values]


def _silicon(seed: int) -> dict[str, float]:
    wide = _operand_pairs(seed, 63)
    # GF(2^8) operands repeat endlessly: the memo path, all hits
    narrow = _operand_pairs(seed, 8)
    healthy = Core("drive/healthy")
    # the AES defect targets SBOX only: ADD takes the not-targeted exit
    untargeted = Core(
        "drive/untargeted", defects=named_case("self_inverting_aes"),
        rng=np.random.default_rng(seed),
    )
    # the load/store bit-flipper targets LOAD: rate draw on every call
    targeted = Core(
        "drive/targeted", defects=named_case("string_bit_flipper"),
        rng=np.random.default_rng(seed),
    )
    defect = named_case("string_bit_flipper")[0]
    rng = np.random.default_rng(seed)

    def golden(op: str, pairs: list[tuple[int, int]]) -> None:
        for pair in pairs:
            golden_call(op, pair)

    def execute(core: Core, op: str) -> None:
        run = core.execute
        for a, b in wide:
            run(op, a, b)

    def load(core: Core) -> None:
        run = core.execute
        for a, _ in wide:
            run(Op.LOAD, a)

    def apply() -> None:
        for a, _ in wide:
            defect.apply(Op.LOAD, (a,), a, NOMINAL, 0.0, rng)

    golden(Op.GFMUL, narrow)  # fill the memo before it is timed
    per_call = 1e9 / OP_CALLS
    return {
        "silicon.golden_scalar_ns": _best_seconds(
            lambda: golden(Op.ADD, wide)) * per_call,
        "silicon.golden_memo_ns": _best_seconds(
            lambda: golden(Op.GFMUL, narrow)) * per_call,
        "silicon.execute_healthy_ns": _best_seconds(
            lambda: execute(healthy, Op.ADD)) * per_call,
        "silicon.execute_untargeted_ns": _best_seconds(
            lambda: execute(untargeted, Op.ADD)) * per_call,
        "silicon.execute_targeted_ns": _best_seconds(
            lambda: load(targeted)) * per_call,
        "silicon.apply_ns": _best_seconds(apply) * per_call,
    }


def _unit_ops_per_s(work: Callable, core: Core) -> float:
    work(core)  # warm the golden memo: steady state is what repeats
    before = core.ops_executed
    seconds = _best_seconds(lambda: work(core), repetitions=3)
    return (core.ops_executed - before) / 3 / seconds


def _workloads(seed: int) -> dict[str, float]:
    out = {}
    for index, spec in enumerate(STANDARD_MIX):
        work = spec.build(seed + index)
        out[f"workloads.{spec.name}_ops_per_s"] = _unit_ops_per_s(
            work, Core(f"drive/{spec.name}")
        )
        if spec.name == "crypto":
            # any defect takes AES off the healthy-core block fast path
            slow = Core(
                "drive/crypto_slowpath", defects=named_case("lock_violator"),
                rng=np.random.default_rng(seed),
            )
            out["workloads.crypto_slowpath_ops_per_s"] = _unit_ops_per_s(
                work, slow
            )
    return out


def _mitigation(seed: int) -> dict[str, float]:
    wide = _operand_pairs(seed, 63)
    checked = IthicaCheckedCore(Core("drive/ithica"), ITHICA_RATE, seed=seed)

    def execute() -> None:
        run = checked.execute
        for a, b in wide:
            run(Op.ADD, a, b)

    seconds = _best_seconds(execute)
    units = 320

    def campaign() -> None:
        machines, _bad = build_instrcheck_fleet(seed=seed + 7)
        InstrCheckCampaign(
            machines, "ithica", InstrCheckConfig(units=units), seed=seed + 3
        ).run()

    return {
        "mitigation.ithica_ns": seconds * 1e9 / OP_CALLS,
        "mitigation.instrcheck_units_per_s": units / _best_seconds(
            campaign, repetitions=3),
    }


def _serving(seed: int) -> dict[str, float]:
    def build() -> None:
        build_serving_fleet(seed=seed + 7)
        build_scale_fleet(seed=seed + 7)

    return {"serving.fleet_build_ms": _best_seconds(build) * 1e3}


def _noop_trial(_trial: Trial) -> int:
    return 0


def _noop_item(item: int) -> int:
    return item


def _engine() -> dict[str, float]:
    n_trials = 200
    return {
        "engine.pool_spawn_ms": _best_seconds(
            lambda: run_tasks(
                _noop_item, range(2 * POOL_WORKERS), workers=POOL_WORKERS
            ),
            repetitions=3,
        ) * 1e3,
        "engine.trial_overhead_us": _best_seconds(
            lambda: run_trials(_noop_trial, n_trials, workers=1)
        ) * 1e6 / n_trials,
    }


def _fleet_and_screens(seed: int) -> dict[str, float]:
    builder = FleetBuilder(seed=seed)
    build_s = _best_seconds(
        lambda: builder.build_columns(DRIVE_MACHINES), repetitions=3)
    columns = builder.build_columns(DRIVE_MACHINES)
    distill_s = _best_seconds(
        lambda: distill(TestCorpus.standard()), repetitions=3)
    battery = screening_battery()

    snapshots = []
    publish_s = _best_seconds(
        lambda: snapshots.append(shm.publish(columns)), repetitions=3)
    try:
        handle = snapshots[0].handle
        attached = []
        attach_s = _best_seconds(
            lambda: attached.append(shm.attach(handle)), repetitions=3)
        shared = attached[0].columns
        thaw_s = _best_seconds(shared.thaw, repetitions=3)
        screener = FleetScreener(battery, env_boost=GRID_ENV_BOOST)
        screen_s = _best_seconds(functools.partial(
            screener.screen, shared, 30.0, np.random.default_rng(seed)
        ))
        for view in attached:
            view.close()
    finally:
        for snapshot in snapshots:
            snapshot.close()

    config = SimulatorConfig(horizon_days=float(DRIVE_HORIZON_DAYS))
    sim_s = _best_seconds(
        lambda: FleetSimulator(columns.thaw(), config=config, seed=seed).run(),
        repetitions=3,
    )
    ridealong = RideAlongScreener(battery, RideAlongConfig(budget_fraction=2e-6))
    ridealong_s = _best_seconds(
        lambda: RideAlongCampaign(columns, ridealong, seed=seed).run(
            float(DRIVE_HORIZON_DAYS)),
        repetitions=3,
    )
    return {
        "fleet.build_cores_per_s": columns.n_cores / build_s,
        "fleet.sim_core_days_per_s":
            columns.n_cores * DRIVE_HORIZON_DAYS / sim_s,
        "fleet.publish_ms": publish_s * 1e3,
        "fleet.attach_ms": attach_s * 1e3,
        "fleet.thaw_ms": thaw_s * 1e3,
        "fleet.snapshot_bytes": handle.snapshot_bytes,
        "detection.distill_ms": distill_s * 1e3,
        "detection.screen_cores_per_s": columns.n_cores / screen_s,
        "detection.ridealong_days_per_s": DRIVE_HORIZON_DAYS / ridealong_s,
    }


def run_drives(seed: int) -> dict[str, float]:
    """Every isolated drive; metric name -> value."""
    return {
        **_silicon(seed),
        **_workloads(seed),
        **_mitigation(seed),
        **_serving(seed),
        **_fleet_and_screens(seed),
        **_engine(),
    }
