"""Deterministic parallel trial engine (:mod:`repro.engine.runner`)."""

from repro.engine.runner import (
    Trial,
    WorkerCrashError,
    WORKERS_ENV,
    derive_trial_seeds,
    effective_workers,
    resolve_workers,
    run_fleet_trials,
    run_tasks,
    run_trials,
)

__all__ = [
    "Trial",
    "WorkerCrashError",
    "WORKERS_ENV",
    "derive_trial_seeds",
    "effective_workers",
    "resolve_workers",
    "run_fleet_trials",
    "run_tasks",
    "run_trials",
]
