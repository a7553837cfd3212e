"""Benchmark scorecards: measured speedups, committed as artifacts.

Each registered benchmark times the optimized path (vectorized fleet
build, vectorized simulator tick, golden-result memoization, parallel
trial fan-out) against the preserved serial baseline (``build_legacy``,
``SimulatorConfig(vectorized=False)``, golden cache disabled) and
returns a :class:`BenchScorecard`.  ``repro bench`` writes each card to
``BENCH_<ID>.json`` so speedup claims in EXPERIMENTS.md are pinned to a
reproducible measurement, not prose.

The baselines are real code paths kept in-tree, so the A/B stays honest
as both sides evolve.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.engine.runner import resolve_workers


@dataclasses.dataclass
class BenchScorecard:
    """One benchmark's measured numbers (the BENCH_<ID>.json payload)."""

    bench_id: str
    title: str
    scale: str
    workers: int
    #: optimized-path wall time for the whole benchmark body
    wall_s: float
    #: serial-baseline wall time for the equivalent work
    baseline_wall_s: float
    #: baseline_wall_s / per-trial optimized wall
    speedup: float
    #: trials (or campaign arms) the optimized path ran
    trials: int
    trials_per_s: float
    ticks: int | None = None
    ticks_per_s: float | None = None
    baseline_ticks_per_s: float | None = None
    tick_speedup: float | None = None
    metrics: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["host"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        }
        return payload

    def summary(self) -> str:
        parts = [
            f"{self.bench_id}: {self.wall_s:.2f}s "
            f"(baseline {self.baseline_wall_s:.2f}s, "
            f"{self.speedup:.1f}x), "
            f"{self.trials_per_s:.2f} trials/s",
        ]
        if self.ticks_per_s is not None:
            parts.append(f"{self.ticks_per_s:.0f} ticks/s")
        if self.tick_speedup is not None:
            parts.append(f"tick {self.tick_speedup:.1f}x")
        return ", ".join(parts)


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------
# individual benchmarks
# ---------------------------------------------------------------------

def bench_build(scale: str, workers: int) -> BenchScorecard:
    """Fleet construction & tick: object substrate vs columnar.

    Four measurements over the same seeded population plan:

    - **build A/B** — legacy per-draw builder (baseline) vs vectorized
      object builder vs ``build_columns`` (the headline ``speedup`` and
      ``cores_per_s`` come from the columnar side);
    - **campaign A/B** — a short simulated campaign on the same fleet
      through both substrates, *including* simulator construction: the
      object side scans every core to build its id indexes, the
      columnar side touches only the mercurial arrays, and that gap is
      exactly what campaigns standing up a simulator per trial pay
      (``tick_speedup``);
    - **O(1M)-core arm** — columnar build + shared-memory snapshot
      publish/attach + a short campaign at a scale the object substrate
      cannot practically reach (``scale_*`` / ``snapshot_*`` metrics);
    - **parity gate** — a small prevalence-boosted fleet run through
      both substrates at the same seed; the event-stream fingerprints
      must be identical (``columnar_parity``), so the speedups above
      can never drift away from bit-equal results.
    """
    import hashlib

    from repro.fleet import shm as fleet_shm
    from repro.fleet.population import FleetBuilder
    from repro.fleet.product import DEFAULT_PRODUCTS
    from repro.fleet.simulator import FleetSimulator, SimulatorConfig

    n_machines = 2000 if scale == "ci" else 12000
    window = (-900.0, 0.0)
    legacy_s, (machines, _) = _timed(
        lambda: FleetBuilder(seed=7, deployment_window=window)
        .build_legacy(n_machines)
    )
    n_cores = sum(len(m.cores) for m in machines)
    object_s, (machines, truth) = _timed(
        lambda: FleetBuilder(seed=7, deployment_window=window)
        .build(n_machines)
    )
    columnar_s, columns = _timed(
        lambda: FleetBuilder(seed=7, deployment_window=window)
        .build_columns(n_machines)
    )

    # Campaign A/B on the fleets just built: construction + a short
    # horizon, both substrates, same seed.
    ab_ticks = 8
    ab_config = SimulatorConfig(horizon_days=float(ab_ticks), warmup_days=0.0)
    object_campaign_s, _ = _timed(
        lambda: FleetSimulator(machines, truth, ab_config, seed=8).run()
    )
    columnar_campaign_s, _ = _timed(
        lambda: FleetSimulator(columns, config=ab_config, seed=8).run()
    )

    # O(1M)-core columnar arm: build, publish, attach, simulate.  The
    # default core mix averages ~40 cores/machine, so 25k machines is
    # a ≈1M-core fleet; this arm runs at both scales because the
    # columnar substrate makes it cheap enough for CI.
    scale_machines = 25_000
    scale_build_s, scale_columns = _timed(
        lambda: FleetBuilder(seed=7, deployment_window=window)
        .build_columns(scale_machines)
    )
    scale_cores = scale_columns.n_cores
    scale_ticks = 30
    snapshot_s, snapshot = _timed(lambda: fleet_shm.publish(scale_columns))
    try:
        attach_s, attached = _timed(lambda: fleet_shm.attach(snapshot.handle))
        snapshot_bytes = snapshot.handle.snapshot_bytes
        scale_campaign_s, _ = _timed(
            lambda: FleetSimulator(
                attached.columns,
                config=SimulatorConfig(
                    horizon_days=float(scale_ticks), warmup_days=0.0
                ),
                seed=8,
            ).run()
        )
        scale_mercurial = scale_columns.n_mercurial
        attached.close()
    finally:
        snapshot.close()

    # Parity gate: prevalence-boosted small fleet (the determinism-test
    # shape), event streams hashed on both substrates.
    boosted = tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * 40.0)
        for p in DEFAULT_PRODUCTS
    )
    parity_config = SimulatorConfig(horizon_days=60.0, warmup_days=0.0)

    def _event_fingerprint(result) -> str:
        payload = {
            "events": [
                (e.time_days, e.machine_id, e.core_id, str(e.kind),
                 str(e.reporter), e.detail)
                for e in result.events
            ],
            "quarantined": sorted(result.quarantined_cores),
            "total_corruptions": result.total_corruptions,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()

    p_machines, p_truth = FleetBuilder(
        products=boosted, seed=11, deployment_window=(-700.0, 0.0)
    ).build(150)
    object_fp = _event_fingerprint(
        FleetSimulator(p_machines, p_truth, parity_config, seed=3).run()
    )
    p_columns = FleetBuilder(
        products=boosted, seed=11, deployment_window=(-700.0, 0.0)
    ).build_columns(150)
    columnar_fp = _event_fingerprint(
        FleetSimulator(p_columns, config=parity_config, seed=3).run()
    )

    return BenchScorecard(
        bench_id="build",
        title="fleet build & tick (object substrate vs columnar)",
        scale=scale,
        workers=workers,
        wall_s=columnar_s,
        baseline_wall_s=legacy_s,
        speedup=legacy_s / max(columnar_s, 1e-9),
        trials=1,
        trials_per_s=1.0 / max(columnar_s, 1e-9),
        ticks=ab_ticks,
        ticks_per_s=ab_ticks / max(columnar_campaign_s, 1e-9),
        baseline_ticks_per_s=ab_ticks / max(object_campaign_s, 1e-9),
        tick_speedup=object_campaign_s / max(columnar_campaign_s, 1e-9),
        metrics={
            "n_machines": n_machines,
            "n_cores": n_cores,
            "n_mercurial": truth.n_mercurial,
            "legacy_build_s": legacy_s,
            "object_build_s": object_s,
            "columnar_build_s": columnar_s,
            "object_cores_per_s": n_cores / max(object_s, 1e-9),
            # headline: columnar build throughput at the 1M-core arm
            "cores_per_s": scale_cores / max(scale_build_s, 1e-9),
            "object_campaign_s": object_campaign_s,
            "columnar_campaign_s": columnar_campaign_s,
            "scale_n_machines": scale_machines,
            "scale_n_cores": scale_cores,
            "scale_n_mercurial": scale_mercurial,
            "scale_build_s": scale_build_s,
            "scale_campaign_ticks": scale_ticks,
            "scale_campaign_s": scale_campaign_s,
            "scale_ticks_per_s": scale_ticks / max(scale_campaign_s, 1e-9),
            "snapshot_bytes": snapshot_bytes,
            "snapshot_ms": snapshot_s * 1e3,
            "attach_ms": attach_s * 1e3,
            "columnar_parity": object_fp == columnar_fp,
            "parity_fingerprint": columnar_fp,
        },
    )


def _tick_timed_simulator_class() -> type:
    """Subclass that accumulates time spent inside the tick alone.

    The E1 sim run is dominated by shared downstream ingest (analyzer,
    policy), so whole-run A/B of the tick is noise; the scalar vs
    vectorized comparison is only meaningful on isolated tick time.
    """
    from repro.fleet.simulator import FleetSimulator

    class TickTimed(FleetSimulator):
        tick_seconds = 0.0

        def _tick_scalar(self, now: float, tick: float) -> None:
            start = time.perf_counter()
            super()._tick_scalar(now, tick)
            self.tick_seconds += time.perf_counter() - start

        def _tick_vectorized(self, now: float, tick: float) -> None:
            start = time.perf_counter()
            super()._tick_vectorized(now, tick)
            self.tick_seconds += time.perf_counter() - start

    return TickTimed


def bench_e1(scale: str, workers: int) -> BenchScorecard:
    """E1 incidence: the full serial legacy trial vs the engine path."""
    from repro.analysis.experiments import _incidence_trial, run_incidence
    from repro.engine.runner import Trial
    from repro.fleet.population import FleetBuilder
    from repro.fleet.simulator import SimulatorConfig
    from repro.workloads.generator import blended_op_mix

    if scale == "ci":
        n_machines, horizon = 2000, 60.0
    else:
        n_machines, horizon = 12000, 270.0
    seed = 7
    blended_op_mix()  # warm the lru cache so neither side pays it
    tick_timed = _tick_timed_simulator_class()

    # Both sides time the complete trial — build, sim, detection
    # scoring — on their respective paths, so the shared downstream
    # analysis is counted identically.
    baseline_wall, _ = _timed(lambda: _incidence_trial(
        Trial(0, seed), n_machines=n_machines, horizon_days=horizon,
        legacy=True,
    ))
    inline_trial_s, _ = _timed(lambda: _incidence_trial(
        Trial(0, seed), n_machines=n_machines, horizon_days=horizon,
    ))

    # Tick A/B on a prevalence-boosted fleet.  At the paper's realistic
    # prevalence this fleet has only a handful of mercurial cores, so
    # the per-tick hot loop barely runs and its A/B is pure noise; the
    # boosted fleet (same trick as tests/test_determinism.py) gives the
    # loop a population worth measuring.  Both sides get the identical
    # fleet: same builder, same seed, rebuilt because the sim mutates
    # cores.
    import dataclasses as _dc

    from repro.fleet.product import DEFAULT_PRODUCTS

    boost = 40.0
    boosted = tuple(
        _dc.replace(p, core_prevalence=p.core_prevalence * boost)
        for p in DEFAULT_PRODUCTS
    )
    tick_s = {}
    for vectorized in (False, True):
        b_machines, b_truth = FleetBuilder(
            products=boosted, seed=seed, deployment_window=(-900.0, 0.0)
        ).build(n_machines)
        b_sim = tick_timed(
            b_machines, b_truth,
            SimulatorConfig(
                horizon_days=horizon, warmup_days=0.0, vectorized=vectorized
            ),
            seed=seed + 1,
        )
        b_sim.run()
        tick_s[vectorized] = b_sim.tick_seconds
    baseline_tick_s, vec_tick_s = tick_s[False], tick_s[True]

    # Engine fan-out through run_incidence: several trials per worker,
    # so the one-time interpreter spawn + import cost of each pool
    # process is amortized across its trials.
    n_trials = 2 * max(1, workers)
    engine_s, _ = _timed(
        lambda: run_incidence(
            n_machines=n_machines, seed=seed, horizon_days=horizon,
            n_trials=n_trials, workers=workers,
        )
    )
    per_trial_s = engine_s / n_trials
    ticks = int(round(horizon / 1.0))
    return BenchScorecard(
        bench_id="e1",
        title="E1 incidence campaign (serial legacy vs engine)",
        scale=scale,
        workers=workers,
        wall_s=engine_s,
        baseline_wall_s=baseline_wall,
        speedup=baseline_wall / max(per_trial_s, 1e-9),
        trials=n_trials,
        trials_per_s=n_trials / max(engine_s, 1e-9),
        ticks=ticks,
        ticks_per_s=ticks / max(vec_tick_s, 1e-9),
        baseline_ticks_per_s=ticks / max(baseline_tick_s, 1e-9),
        tick_speedup=baseline_tick_s / max(vec_tick_s, 1e-9),
        metrics={
            "n_machines": n_machines,
            "horizon_days": horizon,
            "inline_trial_s": inline_trial_s,
            "inline_speedup": baseline_wall / max(inline_trial_s, 1e-9),
            # tick A/B measured on the prevalence-boosted fleet
            "tick_prevalence_boost": boost,
            "scalar_tick_s": baseline_tick_s,
            "vectorized_tick_s": vec_tick_s,
        },
    )


def _bench_campaign(
    bench_id: str,
    title: str,
    scale: str,
    workers: int,
    runner: Callable[..., dict],
    arms: int,
    ticks: int,
) -> BenchScorecard:
    """Shared body for the E15/E16 chaos-campaign benchmarks.

    The baseline disables the golden-result cache (the campaigns
    execute millions of real ops through :class:`Core`) and runs the
    arms serially; the optimized side re-enables it and fans the arms
    out over the engine.

    The optimized side runs with :func:`effective_workers`: a pool
    wider than the host's CPU count (or the arm count) is pure
    pickling/IPC overhead, and committing that as a "speedup" would be
    dishonest in the other direction — the engine would never configure
    it.  The requested count is recorded in ``metrics`` alongside the
    effective one the card's ``workers`` field reports.
    """
    from repro.engine.runner import effective_workers
    from repro.silicon.golden import golden_cache_clear, set_golden_cache

    requested_workers = workers
    workers = effective_workers(workers, n_items=arms)
    set_golden_cache(False)
    try:
        baseline_s, _ = _timed(lambda: runner(ticks=ticks, workers=1))
    finally:
        set_golden_cache(True)
    golden_cache_clear()
    wall_s, _ = _timed(lambda: runner(ticks=ticks, workers=workers))
    total_ticks = arms * ticks
    return BenchScorecard(
        bench_id=bench_id,
        title=title,
        scale=scale,
        workers=workers,
        wall_s=wall_s,
        baseline_wall_s=baseline_s,
        speedup=baseline_s / max(wall_s, 1e-9),
        trials=arms,
        trials_per_s=arms / max(wall_s, 1e-9),
        ticks=total_ticks,
        ticks_per_s=total_ticks / max(wall_s, 1e-9),
        baseline_ticks_per_s=total_ticks / max(baseline_s, 1e-9),
        tick_speedup=baseline_s / max(wall_s, 1e-9),
        metrics={
            "ticks_per_arm": ticks,
            "requested_workers": requested_workers,
        },
    )


def bench_e15(scale: str, workers: int) -> BenchScorecard:
    """E15 serving chaos campaign: golden cache off vs engine + cache."""
    from repro.analysis.experiments import run_serving_under_cee

    return _bench_campaign(
        "e15",
        "E15 serving chaos campaign (uncached serial vs engine)",
        scale,
        workers,
        run_serving_under_cee,
        arms=3,
        ticks=250 if scale == "ci" else 1000,
    )


def bench_e16(scale: str, workers: int) -> BenchScorecard:
    """E16 storage chaos campaign: golden cache off vs engine + cache."""
    from repro.analysis.experiments import run_storage_under_cee

    return _bench_campaign(
        "e16",
        "E16 storage chaos campaign (uncached serial vs engine)",
        scale,
        workers,
        run_storage_under_cee,
        arms=5,
        ticks=150 if scale == "ci" else 600,
    )


def bench_serve_scale(scale: str, workers: int) -> BenchScorecard:
    """E17 serve-at-scale grid: serial vs engine fan-out, plus the
    worker-count invariance gate.

    Runs the full prevalence × mitigation-spend grid twice — once with
    ``workers=1`` (the timing baseline) and once fanned out — and
    fingerprints both result grids.  The fingerprints must match: a
    same-seed E17 scorecard is bit-identical no matter how many workers
    ran it, so the speedup is pure scheduling, never a semantic drift.
    The committed card also carries the headline grid numbers (escape
    rates and p99/p99.9 latency per arm) so the EXPERIMENTS.md claims
    are pinned to a measured artifact.
    """
    import math

    from repro.analysis.experiments import grid_fingerprint, run_serve_at_scale

    ticks = 200 if scale == "ci" else 600
    prevalences = (0.1, 0.2, 0.4)

    baseline_s, serial = _timed(
        lambda: run_serve_at_scale(
            ticks=ticks, prevalences=prevalences, workers=1
        )
    )
    wall_s, fanned = _timed(
        lambda: run_serve_at_scale(
            ticks=ticks, prevalences=prevalences, workers=workers
        )
    )
    serial_fp = grid_fingerprint(serial)
    fanned_fp = grid_fingerprint(fanned)

    def finite(value: float) -> float | None:
        return None if math.isinf(value) else value

    comparisons = {
        key: {
            name: (finite(v) if isinstance(v, float) else v)
            for name, v in comp.items()
        }
        for key, comp in fanned["comparisons"].items()
    }
    arms = len(fanned["arms"]) * len(prevalences)
    total_ticks = arms * ticks
    return BenchScorecard(
        bench_id="e17",
        title="E17 serve-at-scale grid (serial vs engine, invariance-gated)",
        scale=scale,
        workers=workers,
        wall_s=wall_s,
        baseline_wall_s=baseline_s,
        speedup=baseline_s / max(wall_s, 1e-9),
        trials=arms,
        trials_per_s=arms / max(wall_s, 1e-9),
        ticks=total_ticks,
        ticks_per_s=total_ticks / max(wall_s, 1e-9),
        baseline_ticks_per_s=total_ticks / max(baseline_s, 1e-9),
        tick_speedup=baseline_s / max(wall_s, 1e-9),
        metrics={
            "ticks_per_cell": ticks,
            "prevalences": [f"{p:g}" for p in prevalences],
            "arms": list(fanned["arms"]),
            "comparisons": comparisons,
            "hardening_wins": fanned["hardening_wins"],
            "worker_invariant": serial_fp == fanned_fp,
            "grid_fingerprint": fanned_fp,
        },
    )


def bench_instrcheck(scale: str, workers: int) -> BenchScorecard:
    """E18 instruction-level checking grid: serial vs engine fan-out,
    plus the worker-count invariance gate.

    Runs the sampling-rate × prevalence grid for all five checking arms
    twice — ``workers=1`` as the timing baseline, then fanned out — and
    fingerprints both grids.  The fingerprints must match: every cell
    seeds its own fleet and campaign, so a cell's scorecard is
    bit-identical no matter which worker ran it.  The committed card
    carries the headline cost-vs-coverage numbers (per-arm slowdown and
    fraction of CEEs caught pre-propagation at full sampling) so the
    EXPERIMENTS.md claims are pinned to a measured artifact.
    """
    from repro.analysis.experiments import grid_fingerprint, run_instrcheck_grid

    units = 160 if scale == "ci" else 320
    prevalences = (0.125, 0.25)
    rates = (0.1, 0.33, 1.0)

    baseline_s, serial = _timed(
        lambda: run_instrcheck_grid(
            units=units, prevalences=prevalences, rates=rates, workers=1
        )
    )
    wall_s, fanned = _timed(
        lambda: run_instrcheck_grid(
            units=units, prevalences=prevalences, rates=rates,
            workers=workers,
        )
    )
    serial_fp = grid_fingerprint(serial)
    fanned_fp = grid_fingerprint(fanned)

    cells = len(fanned["arms"]) * len(prevalences) * len(rates)
    total_units = cells * units
    return BenchScorecard(
        bench_id="e18",
        title="E18 instrcheck grid (serial vs engine, invariance-gated)",
        scale=scale,
        workers=workers,
        wall_s=wall_s,
        baseline_wall_s=baseline_s,
        speedup=baseline_s / max(wall_s, 1e-9),
        trials=cells,
        trials_per_s=cells / max(wall_s, 1e-9),
        ticks=total_units,
        ticks_per_s=total_units / max(wall_s, 1e-9),
        baseline_ticks_per_s=total_units / max(baseline_s, 1e-9),
        tick_speedup=baseline_s / max(wall_s, 1e-9),
        metrics={
            "units_per_cell": units,
            "prevalences": [f"{p:g}" for p in prevalences],
            "rates": [f"{r:g}" for r in rates],
            "arms": list(fanned["arms"]),
            "comparisons": fanned["comparisons"],
            "cross_core_wins": fanned["cross_core_wins"],
            "precatch_beats_screening": fanned["precatch_beats_screening"],
            "worker_invariant": serial_fp == fanned_fp,
            "grid_fingerprint": fanned_fp,
        },
    )


def bench_fleetscreen(scale: str, workers: int) -> BenchScorecard:
    """E19 fleet-screening grid: serial vs engine fan-out, the
    worker-count invariance gate, and a ≥100k-core columnar screen arm.

    Three measurements:

    - **grid A/B** — the full budget × prevalence × corpus E19 grid run
      twice, ``workers=1`` as the timing baseline then fanned out, with
      both result grids fingerprinted.  The fingerprints must match: a
      same-seed E19 scorecard is bit-identical no matter how many
      workers ran it (the committed ``worker_invariant`` gate).
    - **distillation gate** — the committed SiliFuzz claim: the
      distilled battery keeps ≥90% of the full corpus's unit coverage
      at measurably lower run cost
      (``distilled_cheaper_at_equal_coverage``), plus the grid's other
      headline booleans.
    - **O(100k)-core arm** — a 2,600-machine (~104k-core) columnar
      fleet built, published to shared memory, attached read-only, and
      screened in one vectorized pass with the distilled battery
      (``scale_*`` / ``snapshot_*`` metrics); the full corpus screens
      the same snapshot so the per-pass cost gap is measured on
      identical cores.
    """
    from repro.analysis.experiments import (
        grid_fingerprint,
        run_fleetscreen_grid,
    )
    from repro.detection.corpus import TestCorpus
    from repro.detection.fleetscreen import FleetScreener, distill, full_battery
    from repro.fleet import shm as fleet_shm
    from repro.fleet.population import FleetBuilder

    if scale == "ci":
        n_machines, horizon = 60, 60.0
    else:
        n_machines, horizon = 120, 120.0

    def fingerprint(result: dict) -> str:
        # E19 gates its baseline frontier and headline booleans too
        return grid_fingerprint({"grid": {
            "grid": result["grid"],
            # frontier rows carry ScreeningPolicy objects; fingerprint
            # only the scalar columns
            "baseline": [
                {k: v for k, v in row.items()
                 if isinstance(v, (int, float, str, bool))}
                for row in result["baseline"]
            ],
            "headlines": [
                result["distilled_cheaper_at_equal_coverage"],
                result["distilled_detects_no_less"],
                result["budget_buys_detection"],
            ],
        }})

    baseline_s, serial = _timed(
        lambda: run_fleetscreen_grid(
            n_machines=n_machines, horizon_days=horizon, workers=1
        )
    )
    wall_s, fanned = _timed(
        lambda: run_fleetscreen_grid(
            n_machines=n_machines, horizon_days=horizon, workers=workers
        )
    )
    serial_fp = fingerprint(serial)
    fanned_fp = fingerprint(fanned)
    cells = (
        len(fanned["budgets"])
        * len(fanned["prevalence_scales"])
        * len(fanned["corpora"])
    )
    total_ticks = cells * int(horizon)

    # O(100k)-core arm: the default core mix averages ~40 cores/machine,
    # so 2,600 machines is a ≈104k-core fleet; screened zero-copy off a
    # shared-memory snapshot at both scales (one vectorized pass is
    # cheap enough for CI).
    corpus = TestCorpus.standard()
    distilled = distill(corpus)
    full = full_battery(corpus)
    scale_machines = 2_600
    scale_build_s, scale_columns = _timed(
        lambda: FleetBuilder(seed=7, deployment_window=(-900.0, 0.0))
        .build_columns(scale_machines)
    )
    snapshot = fleet_shm.publish(scale_columns)
    try:
        attached = fleet_shm.attach(snapshot.handle)
        snapshot_bytes = snapshot.handle.snapshot_bytes
        scale_screen_s, scale_result = _timed(
            lambda: FleetScreener(distilled, env_boost=6.0).screen(
                attached.columns, 30.0, np.random.default_rng(0)  # repro: noqa-DET004 -- benchmark fixture rng: fixed so the timed screen is identical across bench runs
            )
        )
        full_screen_s, full_result = _timed(
            lambda: FleetScreener(full, env_boost=6.0).screen(
                attached.columns, 30.0, np.random.default_rng(0)  # repro: noqa-DET004 -- benchmark fixture rng: fixed so the timed screen is identical across bench runs
            )
        )
        scale_cores = attached.columns.n_cores
        scale_mercurial = attached.columns.n_mercurial
        attached.close()
    finally:
        snapshot.close()

    return BenchScorecard(
        bench_id="e19",
        title="E19 fleet screening grid (serial vs engine, invariance-gated)",
        scale=scale,
        workers=workers,
        wall_s=wall_s,
        baseline_wall_s=baseline_s,
        speedup=baseline_s / max(wall_s, 1e-9),
        trials=cells,
        trials_per_s=cells / max(wall_s, 1e-9),
        ticks=total_ticks,
        ticks_per_s=total_ticks / max(wall_s, 1e-9),
        baseline_ticks_per_s=total_ticks / max(baseline_s, 1e-9),
        tick_speedup=baseline_s / max(wall_s, 1e-9),
        metrics={
            "n_machines": n_machines,
            "horizon_days": horizon,
            "budgets": fanned["budgets"],
            "prevalence_scales": fanned["prevalence_scales"],
            "corpora": fanned["corpora"],
            "worker_invariant": serial_fp == fanned_fp,
            "grid_fingerprint": fanned_fp,
            "distilled_cheaper_at_equal_coverage":
                fanned["distilled_cheaper_at_equal_coverage"],
            "distilled_detects_no_less": fanned["distilled_detects_no_less"],
            "budget_buys_detection": fanned["budget_buys_detection"],
            "full_battery_ops": full.total_ops,
            "distilled_battery_ops": distilled.total_ops,
            "distilled_battery_tests": len(distilled.tests),
            "distilled_coverage": distilled.coverage_fraction,
            "scale_n_machines": scale_machines,
            "scale_n_cores": scale_cores,
            "scale_n_mercurial": scale_mercurial,
            "scale_build_s": scale_build_s,
            "scale_screen_s": scale_screen_s,
            "scale_cores_per_s": scale_result.n_screened
            / max(scale_screen_s, 1e-9),
            "scale_n_screened": scale_result.n_screened,
            "scale_machine_seconds": scale_result.machine_seconds,
            "scale_full_screen_s": full_screen_s,
            "scale_full_machine_seconds": full_result.machine_seconds,
            "snapshot_bytes": snapshot_bytes,
        },
    )


def bench_obs(scale: str, workers: int) -> BenchScorecard:
    """Observability overhead: REPRO_OBS=off must be (nearly) free.

    Times the full E1 incidence trial (build + sim + detection scoring)
    three ways, interleaved so thermal / cache drift hits every side
    equally:

    - **ref** — obs disabled (the first "off" pass; the A/A reference);
    - **off** — obs disabled again: ``off vs ref`` is the measurement
      noise floor, and its median delta is the committed no-op-mode
      overhead claim (<3% per ISSUE/OBSERVABILITY.md);
    - **on** — obs enabled: what full instrumentation costs.

    ``speedup`` on this card is ref/off (≈1.0 when the no-op mode is
    actually free); the on-mode cost is in ``metrics``.
    """
    from repro import obs
    from repro.analysis.experiments import _incidence_trial
    from repro.engine.runner import Trial
    from repro.workloads.generator import blended_op_mix

    if scale == "ci":
        n_machines, horizon, reps = 2000, 60.0, 3
    else:
        n_machines, horizon, reps = 12000, 270.0, 5
    seed = 7
    blended_op_mix()  # warm the lru cache so no side pays it

    def trial() -> dict:
        return _incidence_trial(
            Trial(0, seed), n_machines=n_machines, horizon_days=horizon
        )

    prior = obs.enabled()
    times: dict[str, list[float]] = {"ref": [], "off": [], "on": []}
    try:
        trial()  # warm both paths once before any timed pass
        for _ in range(reps):
            for mode in ("ref", "off", "on"):
                obs.set_enabled(mode == "on")
                if mode == "on":
                    obs.metrics.reset()
                    obs.tracer.reset()
                seconds, _ = _timed(trial)
                times[mode].append(seconds)
    finally:
        obs.set_enabled(prior)
    ref_s = float(np.median(times["ref"]))
    off_s = float(np.median(times["off"]))
    on_s = float(np.median(times["on"]))
    off_overhead_pct = 100.0 * (off_s - ref_s) / max(ref_s, 1e-9)
    on_overhead_pct = 100.0 * (on_s - off_s) / max(off_s, 1e-9)
    return BenchScorecard(
        bench_id="obs",
        title="observability overhead (REPRO_OBS off vs on)",
        scale=scale,
        workers=workers,
        wall_s=off_s,
        baseline_wall_s=ref_s,
        speedup=ref_s / max(off_s, 1e-9),
        trials=reps,
        trials_per_s=1.0 / max(off_s, 1e-9),
        metrics={
            "n_machines": n_machines,
            "horizon_days": horizon,
            "reps": reps,
            "ref_s": ref_s,
            "off_s": off_s,
            "on_s": on_s,
            # the committed claim: no-op mode within noise of never
            # having imported obs at all (A/A delta), <3%
            "off_overhead_pct": off_overhead_pct,
            "on_overhead_pct": on_overhead_pct,
        },
    )


#: bench id → (title, runner)
BENCHMARKS: dict[str, tuple[str, Callable[[str, int], BenchScorecard]]] = {
    "build": ("Fleet construction: legacy vs vectorized", bench_build),
    "e1": ("E1 incidence: serial legacy vs engine", bench_e1),
    "e15": ("E15 serving campaign: uncached serial vs engine", bench_e15),
    "e16": ("E16 storage campaign: uncached serial vs engine", bench_e16),
    "serve-scale": ("E17 serve-at-scale grid: serial vs engine", bench_serve_scale),
    "instrcheck": ("E18 instrcheck grid: serial vs engine", bench_instrcheck),
    "fleetscreen": ("E19 fleet screening grid: serial vs engine", bench_fleetscreen),
    "obs": ("Observability overhead: off-mode A/A vs on", bench_obs),
}


def run_benchmark(
    bench_id: str, scale: str = "default", workers: int | None = None
) -> BenchScorecard:
    """Run one registered benchmark and return its scorecard."""
    if bench_id not in BENCHMARKS:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark {bench_id!r} (known: {known})")
    if scale not in ("default", "ci"):
        raise ValueError(f"scale must be 'default' or 'ci', got {scale!r}")
    _title, fn = BENCHMARKS[bench_id]
    return fn(scale, resolve_workers(workers))


def write_scorecard(card: BenchScorecard, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<ID>.json`` and return its path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{card.bench_id.upper()}.json"
    path.write_text(json.dumps(card.to_json(), indent=2) + "\n")
    return path
