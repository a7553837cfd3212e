"""Command-line interface: run the paper's experiments by ID.

Usage::

    python -m repro list                  # experiment catalog
    python -m repro run E3                # one experiment, rendered
    python -m repro run F1 --scale ci     # the figure, at smoke scale
    python -m repro run E15 --seed 7      # reproducible from the shell
    python -m repro run E17 --scale ci    # serve-at-scale grid, smoke scale
    python -m repro run A3                # an ablation row
    python -m repro run all               # every row; exit 1 if a claim fails
    python -m repro serve                 # the E15 chaos campaign, CI scale
    python -m repro serve --json          # machine-readable SLO scorecards
    python -m repro store                 # the E16 storage campaign, CI scale
    python -m repro store --json          # machine-readable durability scorecards
    python -m repro cases                 # the §2 named defect case studies
    python -m repro run E19 --scale ci    # fleet-screening grid, smoke scale
    python -m repro trace e18             # instrcheck catch-attribution timeline
    python -m repro trace e17             # serve-at-scale (full arm) forensics
    python -m repro run E1 --trials 8 --workers 4   # parallel Monte-Carlo
    python -m repro metrics e15           # Prometheus-text metric dump
    python -m repro metrics e16 --format json   # JSON metric snapshot
    python -m repro trace e15             # corruption-forensics timeline
    python -m repro lint                  # static invariant checks
    python -m repro lint --json src       # machine-readable findings
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
import traceback
from typing import Sequence

# The experiment registry (repro.analysis.experiments) pulls in scipy and
# every simulator package, so it is imported inside the subcommands that
# use it: ``repro lint`` never pays for it.

#: campaign experiments with ``--json`` scorecard output: experiment id
#: → (scorecard result keys, headline metric result keys)
_CAMPAIGN_JSON_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "E15": (
        ("unhardened", "hardened", "validator_only"),
        ("bad_core_id", "escape_rate_unhardened", "escape_rate_hardened",
         "escape_reduction", "p99_cost", "goodput_cost",
         "quarantine_tick_breaker", "quarantine_tick_validator_only"),
    ),
    "E16": (
        ("unprotected", "quorum_only", "no_encrypt_verify",
         "generic_weights", "protected"),
        ("bad_core_id", "escape_rate_unprotected", "escape_rate_protected",
         "escape_reduction", "write_amp_cost", "unrecoverable_unprotected",
         "unrecoverable_no_verify", "unrecoverable_protected",
         "quarantine_tick_dedicated", "quarantine_tick_generic"),
    ),
}


def _runner_kwargs(experiment_id: str, scale: str, seed: int | None,
                   workers: int | None = None,
                   trials: int | None = None) -> dict:
    from repro.analysis.experiments import EXPERIMENTS

    experiment = EXPERIMENTS[experiment_id]
    kwargs = dict(experiment.ci) if scale == "ci" else {}
    parameters = inspect.signature(experiment.run).parameters
    if seed is not None:
        if "seed" in parameters:
            kwargs["seed"] = seed
        else:
            print(f"note: {experiment_id} does not take a seed; ignoring",
                  file=sys.stderr)
    for name, value in (("workers", workers), ("n_trials", trials)):
        if value is None:
            continue
        if name in parameters:
            kwargs[name] = value
        else:
            print(
                f"note: {experiment_id} does not take {name}; ignoring",
                file=sys.stderr,
            )
    return kwargs


def _run_one(experiment_id: str, scale: str, seed: int | None = None,
             workers: int | None = None, trials: int | None = None,
             gate: bool = True) -> int:
    """Run one row and print its table; with ``gate``, also print one
    verdict line per claim and return 1 unless every claim held."""
    from repro.analysis.experiments import EXPERIMENTS, evaluate

    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        print(f"unknown experiment {experiment_id!r}; try `list`",
              file=sys.stderr)
        return 2
    kwargs = _runner_kwargs(
        experiment_id, scale, seed, workers=workers, trials=trials
    )
    print(f"== {experiment_id}: {experiment.title} ==")
    # operator-facing elapsed display, not simulated time
    started = time.time()    # repro: noqa-DET002 -- wall-clock UX only
    try:
        result = experiment.run(**kwargs)
        elapsed = time.time() - started    # repro: noqa-DET002 -- wall-clock UX only
        print(result["rendered"])
        verdicts = evaluate(experiment, result) if gate else []
    except Exception:
        # a row that raises is a failed row: report it and let
        # ``run all`` reach the rows after it
        traceback.print_exc()
        print(f"✘ {experiment_id} raised before its claims could be checked")
        return 1
    for claim, held in verdicts:
        print(f"{'✔' if held else '✘'} {claim.name} — {claim.paper}")
    print(f"[{elapsed:.1f}s]")
    return 0 if all(held for _, held in verdicts) else 1


def _jsonable(value):
    """Strict-JSON-safe scalar: non-finite floats become None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _run_campaign_json(experiment_id: str, seed: int | None,
                       workers: int | None = None) -> int:
    """Run a chaos campaign and print its scorecards as strict JSON."""
    from repro.analysis.experiments import EXPERIMENTS

    experiment = EXPERIMENTS[experiment_id]
    card_keys, metric_keys = _CAMPAIGN_JSON_KEYS[experiment_id]
    kwargs = _runner_kwargs(experiment_id, "ci", seed, workers=workers)
    result = experiment.run(**kwargs)
    payload = {
        "experiment": experiment_id,
        "title": experiment.title,
        "scorecards": {
            key: result[key].to_json() for key in card_keys
        },
        "metrics": {
            key: _jsonable(result[key]) for key in metric_keys
        },
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _obs_campaign(source: str, seed: int) -> tuple:
    """Run one observability-instrumented campaign arm at CI scale.

    ``source`` names a row of the campaign table.  Returns
    ``(scorecard, events, bad_core_id, tick_ms, label)``; the obs
    registry and tracer hold the run's metrics and spans afterwards.
    """
    from repro import obs
    from repro.analysis.experiments import CAMPAIGNS, EXPERIMENTS, campaign_arm

    obs.set_enabled(True)
    obs.metrics.reset()
    obs.tracer.reset()
    experiment_id = source.upper()
    spec = CAMPAIGNS[experiment_id]
    scale = EXPERIMENTS[experiment_id].ci
    card, events, bad = campaign_arm(
        spec.trace_arm, experiment_id=experiment_id, seed=seed,
        fleet=spec.trace_fleet, **scale,
    )
    bad_core_id = bad if isinstance(bad, str) else ",".join(bad)
    return card, events, bad_core_id, spec.config(**scale).tick_ms, spec.label


def _cmd_metrics(args) -> int:
    """Run an instrumented campaign and dump the metric registry."""
    from repro import obs
    from repro.obs.export import to_json, to_prometheus

    seed = 0 if args.seed is None else args.seed
    if args.source == "e1":
        from repro.analysis.experiments import _incidence_trial
        from repro.engine import Trial

        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        _incidence_trial(Trial(0, seed), n_machines=2000, horizon_days=60.0)
    else:
        _obs_campaign(args.source, seed)
    if args.format == "json":
        print(to_json(obs.metrics))
    else:
        print(to_prometheus(obs.metrics), end="")
    return 0


def _cmd_trace(args) -> int:
    """Run an instrumented campaign and print its forensics timeline."""
    from repro import obs
    from repro.obs.forensics import render_forensics

    seed = 0 if args.seed is None else args.seed
    card, events, bad_core_id, tick_ms, label = _obs_campaign(
        args.campaign, seed
    )
    print(render_forensics(
        f"{label}, seed {seed}, bad core {bad_core_id}",
        card.detection_latency_ms, events, obs.tracer.drain(), tick_ms,
        quarantine_tick=card.quarantine_tick,
    ))
    return 0


def _check_campaign(parser: argparse.ArgumentParser, name: str, value: str,
                    extra: tuple[str, ...] = ()) -> None:
    """Reject a name outside the campaign table the way argparse
    ``choices`` would (exit 2, valid names listed); checked after
    parsing so the registry loads only for the commands that use it."""
    from repro.analysis.experiments import CAMPAIGNS

    valid = extra + tuple(eid.lower() for eid in CAMPAIGNS)
    if value not in valid:
        parser.error(
            f"argument {name}: invalid choice: {value!r} "
            f"(choose from {', '.join(valid)})"
        )


def _cmd_list() -> int:
    from repro.analysis.experiments import EXPERIMENTS

    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, experiment in EXPERIMENTS.items():
        print(f"{eid:<{width}}  {experiment.title}")
    return 0


def _cmd_cases() -> int:
    import numpy as np

    from repro.detection.corpus import TestCorpus
    from repro.silicon import Core, NAMED_CASES, named_case

    corpus = TestCorpus.standard(seeds=(1,))
    for name in NAMED_CASES:
        core = Core(
            f"cases/{name}", defects=named_case(name),
            rng=np.random.default_rng(0),  # repro: noqa-DET004 -- operator demo listing; fixed seed so the printed case table is stable across runs
        )
        screen = corpus.screen(core, repetitions=2)
        descriptions = "; ".join(d.describe() for d in core.defects)
        print(f"{name}:")
        print(f"  defects:   {descriptions}")
        print(f"  confessed: {screen.confessed} "
              f"({len(screen.failed_tests)} failing tests, "
              f"{screen.machine_checks} machine checks)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'Cores that don't count'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiment IDs")
    subparsers.add_parser("cases", help="screen the §2 named defect cases")
    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment", help="experiment ID (F1, E1..E19, A1..A10) or 'all'"
    )
    run_parser.add_argument(
        "--scale", choices=("full", "ci"), default="full",
        help="ci = smoke-test sizes",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="master seed for runners that take one (reproducible runs)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for runners that fan out "
             "(default: REPRO_WORKERS or 1; results are identical "
             "for any value)",
    )
    run_parser.add_argument(
        "--trials", type=int, default=None,
        help="Monte-Carlo trial count for runners that support it",
    )
    for name, experiment_id, help_text in (
        ("serve", "E15",
         "run the E15 serving-under-CEE chaos campaign at CI scale"),
        ("store", "E16",
         "run the E16 storage-under-CEE chaos campaign at CI scale"),
    ):
        campaign_parser = subparsers.add_parser(name, help=help_text)
        campaign_parser.add_argument(
            "--seed", type=int, default=None, help="campaign master seed",
        )
        campaign_parser.add_argument(
            "--json", action="store_true",
            help="print machine-readable scorecards instead of tables",
        )
        campaign_parser.add_argument(
            "--workers", type=int, default=None,
            help="process-pool size for the campaign arms",
        )
        campaign_parser.set_defaults(experiment_id=experiment_id)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="run an instrumented campaign; dump the metric registry",
    )
    metrics_parser.add_argument(
        "source", nargs="?", default="e15",
        help="e1 or a campaign-table row to instrument (default: e15)",
    )
    metrics_parser.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="Prometheus text exposition (default) or JSON snapshot",
    )
    metrics_parser.add_argument(
        "--seed", type=int, default=None, help="campaign master seed",
    )
    trace_parser = subparsers.add_parser(
        "trace",
        help="run an instrumented campaign; print corruption forensics",
    )
    trace_parser.add_argument(
        "campaign", nargs="?", default="e15",
        help="campaign-table row to trace (default: e15)",
    )
    trace_parser.add_argument(
        "--seed", type=int, default=None, help="campaign master seed",
    )
    lint_parser = subparsers.add_parser(
        "lint",
        help="run the static invariant linter (AST rule pack)",
    )
    from repro.lint import cli as lint_cli

    lint_cli.add_arguments(lint_parser)

    args = parser.parse_args(argv)
    if args.command == "lint":
        return lint_cli.run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "cases":
        return _cmd_cases()
    if args.command == "metrics":
        _check_campaign(metrics_parser, "source", args.source, ("e1",))
        return _cmd_metrics(args)
    if args.command == "trace":
        _check_campaign(trace_parser, "campaign", args.campaign)
        return _cmd_trace(args)
    if args.command in ("serve", "store"):
        if args.json:
            return _run_campaign_json(
                args.experiment_id, seed=args.seed, workers=args.workers
            )
        # an operator demo at any seed: the table, not the gate
        return _run_one(
            args.experiment_id, "ci", seed=args.seed, workers=args.workers,
            gate=False,
        )
    if args.experiment == "all":
        from repro.analysis.experiments import EXPERIMENTS

        status = 0
        for eid in EXPERIMENTS:
            status = max(status, _run_one(
                eid, args.scale, seed=args.seed,
                workers=args.workers, trials=args.trials,
            ))
        return status
    return _run_one(
        args.experiment.upper(), args.scale, seed=args.seed,
        workers=args.workers, trials=args.trials,
    )


if __name__ == "__main__":
    raise SystemExit(main())
