"""Command-line interface: run the paper's experiments by ID.

Usage::

    python -m repro list                  # experiment catalog
    python -m repro run E3                # one experiment, rendered
    python -m repro run F1 --scale ci     # the figure, at smoke scale
    python -m repro run E15 --seed 7      # reproducible from the shell
    python -m repro run E17 --scale ci    # serve-at-scale grid, smoke scale
    python -m repro run A3                # an ablation row
    python -m repro run all               # every row; exit 1 if a claim fails
    python -m repro run E15 --scale ci    # the serving chaos campaign
    python -m repro run E16 --scale ci --json   # machine-readable scorecards
    python -m repro cases                 # the §2 named defect case studies
    python -m repro run E19 --scale ci    # fleet-screening grid, smoke scale
    python -m repro trace e18             # instrcheck catch-attribution timeline
    python -m repro trace e17             # serve-at-scale (full arm) forensics
    python -m repro run E1 --trials 8 --workers 4   # parallel Monte-Carlo
    python -m repro metrics e15           # Prometheus-text metric dump
    python -m repro metrics e16 --format json   # JSON metric snapshot
    python -m repro trace e15             # corruption-forensics timeline
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
import traceback
from typing import Sequence

# The experiment registry (repro.analysis.experiments) pulls in scipy and
# every simulator package, so it is imported inside the subcommands that
# use it.


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


def _json_payload(experiment_id: str, title: str, result: dict) -> dict:
    """A row's whole result as strict JSON (see ``result_json``): its
    top-level scorecards under ``scorecards``, every other key but
    ``rendered`` under ``metrics``."""
    from repro.analysis.experiments import result_json
    from repro.campaign import CampaignScorecard

    payload: dict = {
        "experiment": experiment_id, "title": title,
        "scorecards": {}, "metrics": {},
    }
    for key, value in result_json(result).items():
        if key != "rendered":
            kind = (
                "scorecards" if isinstance(result[key], CampaignScorecard)
                else "metrics"
            )
            payload[kind][key] = value
    return payload


def _run_one(experiment_id: str, scale: str, seed: int | None = None,
             workers: int | None = None, trials: int | None = None,
             as_json: bool = False) -> int:
    """Run one row, print its table (or, ``as_json``, its JSON
    payload) and one verdict line per claim; return 1 unless every
    claim held.  With ``as_json`` stdout carries only the payload."""
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
    report = sys.stderr if as_json else sys.stdout
    print(f"== {experiment_id}: {experiment.title} ==", file=report)
    # operator-facing elapsed display, not simulated time
    started = time.time()
    try:
        result = experiment.run(**kwargs)
        elapsed = time.time() - started
        shown = json.dumps(
            _json_payload(experiment_id, experiment.title, result),
            indent=2, sort_keys=True, allow_nan=False,
        ) if as_json else result["rendered"]
        verdicts = evaluate(experiment, result)
    except Exception:
        # a row that raises is a failed row: report it and let
        # ``run all`` reach the rows after it.  Output is written
        # outside this block, so a closed stdout is not a row failure.
        traceback.print_exc()
        print(f"✘ {experiment_id} raised before its claims could be checked",
              file=report)
        return 1
    print(shown)
    for claim, held in verdicts:
        print(f"{'✔' if held else '✘'} {claim.name} — {claim.paper}",
              file=report)
    print(f"[{elapsed:.1f}s]", file=report)
    return 0 if all(held for _, held in verdicts) else 1


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
            # fixed seed: the printed case table is stable across runs
            rng=np.random.default_rng(0),
        )
        screen = corpus.screen(core, repetitions=2)
        descriptions = "; ".join(d.describe() for d in core.defects)
        print(f"{name}:")
        print(f"  defects:   {descriptions}")
        print(f"  confessed: {screen.confessed} "
              f"({len(screen.failed_tests)} failing tests, "
              f"{screen.machine_checks} machine checks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser.  Each subcommand that validates
    further after parsing carries its own parser as ``command_parser``,
    so the error reads like an argparse one."""
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
    run_parser.add_argument(
        "--json", action="store_true",
        help="print the row's whole result (scorecards, grids, series; "
             "non-finite numbers as the strings inf, -inf and nan) as "
             "strict JSON instead of its table (one experiment ID only)",
    )

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
    for command_parser in (run_parser, metrics_parser, trace_parser):
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit status.  A reader that
    closes stdout early (``repro run E10 | head -1``) ends the command
    quietly with status 1: no traceback, no verdict about the row."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # nothing more can be shown; stdout goes to devnull so the
        # interpreter's flush at exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command; returns its exit status."""
    if args.command == "list":
        return _cmd_list()
    if args.command == "cases":
        return _cmd_cases()
    if args.command == "metrics":
        _check_campaign(args.command_parser, "source", args.source, ("e1",))
        return _cmd_metrics(args)
    if args.command == "trace":
        _check_campaign(args.command_parser, "campaign", args.campaign)
        return _cmd_trace(args)
    if args.experiment == "all":
        if args.json:
            args.command_parser.error(
                "--json takes one experiment ID, not 'all'"
            )
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
        workers=args.workers, trials=args.trials, as_json=args.json,
    )


if __name__ == "__main__":
    raise SystemExit(main())
