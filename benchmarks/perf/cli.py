"""The benchmark driver: starts workers, measures, traces, scores, prints.

Two runs, both driven from this (thin, ``repro``-free) process:

- the **measured run** gives the end-to-end metrics with tracing off.
  One cold worker per workload, rounds driven round-robin so only one
  worker is ever busy and each workload's samples are spread over the
  whole run; round *r* runs its passes at seed ``--seed + r``.
- the **traced run** gives the per-layer metrics: the isolated drives,
  then the workload at ``--seed`` in a plain, a traced and an
  observability-off arm (plus a pooled arm where the workload has a
  pool), all of which must produce the same fingerprint.

``BENCHMARK.json`` at the repo root is the metric catalogue: names,
units and regression bounds are read from it, never repeated here.

Estimator: every pass is timed in *calibrated seconds*
(:mod:`benchmarks.perf.calibration`) and ``work_per_s`` is the median
over all passes of work per calibrated second.  README.md has the noise
measurements behind that choice.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
CATALOGUE_PATH = REPO_ROOT / "BENCHMARK.json"
FINGERPRINTS_PATH = HERE / "fingerprints.json"

#: workload -> unit of work (``benchmarks.perf.workloads`` holds the rest;
#: it imports ``repro`` and so belongs to the workers)
WORKLOAD_UNITS = {
    "op_stream": "op",
    "serve_campaign": "request",
    "store_campaign": "storage-op",
    "fleet_grid": "core-day",
}
POOLED_WORKLOAD = "fleet_grid"

ROUNDS = 8
PASSES = 3
SETUP_STARTS = 3
#: rounds of ``--seed 0`` whose fingerprints ``--write-fingerprints`` pins
PINNED_ROUNDS = 16


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed pass)."""


# ---------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------

class WorkerClient:
    """One worker subprocess and the pipe to it.

    ``setup_s`` is the cold start as a user pays it, in calibrated
    seconds: from before the interpreter is spawned until the worker
    reports its fixture built, scaled by the calibration kernel the
    worker runs right after.
    """

    def __init__(self, workload: str, seed: int) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"),
             "--worker", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.host = self._reply()["host"]
            elapsed = time.perf_counter() - started
            slowdown = self._reply()["slowdown"]
        except BaseException:
            self.kill()
            raise
        self.setup_s = elapsed / slowdown

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise BenchmarkError(f"worker exited with code {code}")
        return json.loads(line)

    def request(self, cmd: str, **arguments: object) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd, **arguments}) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def close(self) -> dict:
        """Ask the worker to exit; returns its last reply."""
        try:
            reply = self.request("exit")
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except BaseException:
            self.kill()
            raise
        return reply

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()


# ---------------------------------------------------------------------
# scoring helpers
# ---------------------------------------------------------------------

def _passed(records: list[dict]) -> list[dict]:
    return [record for record in records if "error" not in record]


def _typical(records: list[dict]) -> dict:
    """The pass with the median calibrated duration."""
    ranked = sorted(_passed(records), key=lambda record: record["calibrated_s"])
    if not ranked:
        raise BenchmarkError("no pass of an arm succeeded")
    return ranked[len(ranked) // 2]


def _spread_pct(values: list[float]) -> float:
    """Interquartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


def _pins() -> dict[str, dict[str, str]]:
    if FINGERPRINTS_PATH.is_file():
        return json.loads(FINGERPRINTS_PATH.read_text())
    return {}


def _pinned(workload: str, seed: int, number: int) -> str | None:
    """The pinned fingerprint of round ``number`` of a ``--seed 0`` run;
    other seeds are pinned nowhere and checked for agreement only."""
    if seed != 0:
        return None
    return _pins().get(workload, {}).get(str(number))


def _failed_passes(
    workload: str, seed: int, records: list[dict], expected: str | None,
) -> int:
    """Passes of one seed that raised, disagreed or leaked a segment.

    Without a pinned ``expected`` fingerprint, the first one the seed
    produced is it: same seed, same simulated outputs, whatever arm or
    pool width produced them.
    """
    failed = 0
    for record in records:
        if "error" in record:
            reason = record["error"]
        elif record["leaked_segments"]:
            reason = f"leaked shm segments {record['leaked_segments']}"
        else:
            expected = expected or record["fingerprint"]
            if record["fingerprint"] == expected:
                continue
            reason = (
                f"fingerprint {record['fingerprint'][:16]} != "
                f"expected {expected[:16]}"
            )
        failed += 1
        print(f"FAILED PASS {workload} seed {seed}: {reason}", file=sys.stderr)
    return failed


def _enough(
    done: int, started: float, rounds: int | None, seconds: float | None,
    at_least: int,
) -> bool:
    """Stop after a fixed count, or once ``seconds`` have passed since
    ``started`` and ``at_least`` rounds are in."""
    if seconds is None:
        return done >= rounds
    return done >= at_least and time.perf_counter() - started >= seconds


# ---------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------

def measure(
    workloads: list[str], seed: int, *, rounds: int | None = ROUNDS,
    seconds: float | None = None, passes: int = PASSES,
    setup_starts: int = SETUP_STARTS, check_pins: bool = True,
) -> dict[str, dict]:
    """The measured run: end-to-end metrics per workload, tracing off."""
    setup: dict[str, list[float]] = {name: [] for name in workloads}
    for name in workloads:
        for _ in range(setup_starts - 1):
            client = WorkerClient(name, seed)
            setup[name].append(client.setup_s)
            client.close()
    clients: dict[str, WorkerClient] = {}
    by_round: dict[str, list[dict]] = {name: [] for name in workloads}
    try:
        for name in workloads:
            clients[name] = WorkerClient(name, seed)
            setup[name].append(clients[name].setup_s)
        started = time.perf_counter()
        number = 0
        # at least three rounds, so that the pass seeds vary
        while not _enough(number, started, rounds, seconds, at_least=3):
            for name in workloads:
                by_round[name].append(clients[name].request(
                    "round", seed=seed + number, passes=passes))
            number += 1
        for client in clients.values():
            client.close()
    except BaseException:
        for client in clients.values():
            client.kill()
        raise

    results = {}
    for name in workloads:
        failed = sum(
            _failed_passes(
                name, seed + number, reply["passes"],
                _pinned(name, seed, number) if check_pins else None,
            )
            for number, reply in enumerate(by_round[name])
        )
        good = [
            record for reply in by_round[name]
            for record in _passed(reply["passes"])
        ]
        rates = [record["work"] / record["calibrated_s"] for record in good]
        results[name] = {
            "attempted": sum(len(reply["passes"]) for reply in by_round[name]),
            "failed": failed,
            "host": clients[name].host,
            "pass_rates": rates,
            "raw_pass_rates": [r["work"] / r["seconds"] for r in good],
            "fingerprints": {
                str(number): reply["passes"][0].get("fingerprint")
                for number, reply in enumerate(by_round[name])
            },
            "counts": good[0]["counts"] if good else {},
            "end_to_end": {
                "work_per_s": statistics.median(rates) if rates else 0.0,
                "setup_s": statistics.median(setup[name]),
                # after the first round: the fixture plus one round is
                # the same work in every run, while later rounds keep
                # filling the golden memo for as long as the run lasts
                "peak_rss_mb": by_round[name][0]["peak_rss_mb"],
            },
        }
    return results


# ---------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------

def _iteration_metrics(arms: dict[str, list[dict]], workers: int) -> dict[str, float]:
    """Per-layer metrics of one iteration of the traced run's arms.

    Ratios between arms compare calibrated seconds — the arms run at
    different moments; timings inside one traced pass are raw host time.
    """
    plain = _typical(arms["plain"])
    traced = _typical(arms["traced"])
    quiet = _typical(arms["obs_off"])
    pooled = _typical(arms["pooled"]) if "pooled" in arms else None
    counts = plain["counts"]
    boundaries = traced["boundaries"]
    traced_ns = traced["seconds"] * 1e9

    def calls(name: str) -> int:
        return boundaries[name]["calls"]

    def mean(name: str, per: float) -> float:
        return boundaries[name]["total_ns"] / per / max(calls(name), 1)

    def total_s(*names: str) -> float:
        return sum(boundaries[name]["total_ns"] for name in names) / 1e9

    def per_second(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    memo_lookups = plain["memo_hits"] + plain["memo_misses"]
    attributed = sum(traced["layer_self_ns"].values())
    metrics = {
        "silicon.golden_memo_hit_ratio":
            plain["memo_hits"] / memo_lookups if memo_lookups else 0.0,
        # calls, not Core.ops_executed: the healthy-core AES fast path
        # books ops it never dispatches, and a campaign's client-side
        # cores are not in its fleet
        "silicon.ops": calls("silicon.execute"),
        "silicon.ops_per_work": calls("silicon.execute") / plain["work"],
        "silicon.corruptions": counts.get("silicon.corruptions", 0),
        "silicon.machine_checks": counts.get("silicon.machine_checks", 0),
        "workloads.calls": sum(
            calls(name) for name in boundaries if name.startswith("workloads.")
        ),
        "mitigation.ithica_check_ratio": (
            counts.get("mitigation.checked_ops", 0)
            / max(counts.get("mitigation.payload_ops", 0), 1)
        ),
        "serving.campaign_run_s": total_s("serving.campaign_run"),
        "serving.scale_run_s": total_s("serving.scale_run"),
        "serving.serve_us": mean("serving.serve", 1e3),
        "serving.serve_calls": calls("serving.serve"),
        "serving.requests": counts.get("serving.requests", 0),
        "serving.ticks_per_s": per_second(
            counts.get("serving.ticks", 0),
            total_s("serving.campaign_run", "serving.scale_run")),
        "storage.run_s": total_s("storage.run"),
        "storage.put_us": mean("storage.put", 1e3),
        "storage.get_us": mean("storage.get", 1e3),
        "storage.puts": calls("storage.put"),
        "storage.gets": calls("storage.get"),
        "storage.scrub_round_us": mean("storage.scrub_round", 1e3),
        "storage.sync_round_us": mean("storage.sync_round", 1e3),
        "storage.ticks_per_s": per_second(
            counts.get("storage.ticks", 0), total_s("storage.run")),
        "storage.write_amplification":
            counts.get("storage.write_amplification", 0.0),
        "detection.ingest_ns": mean("detection.ingest", 1.0),
        "detection.suspects_us": mean("detection.suspects", 1e3),
        "detection.events": calls("detection.ingest"),
        "detection.confessions": counts.get("detection.confessions", 0),
        "core.decide_us": mean("core.decide", 1e3),
        "core.decisions": calls("core.decide"),
        "fleet.sim_events": counts.get("fleet.sim_events", 0),
        "fleet.schedule_us": mean("fleet.schedule", 1e3),
        "fleet.mercurial_per_kmachine":
            counts.get("fleet.mercurial_per_kmachine", 0.0),
        "fleet.recall": counts.get("fleet.recall", 0.0),
        # pooled wall against the same trials inline, per worker
        "engine.pool_overhead_s": (
            pooled["calibrated_s"] - plain["calibrated_s"] / workers
            if pooled else 0.0
        ),
        "engine.fanout_efficiency": (
            plain["calibrated_s"] / (pooled["calibrated_s"] * workers)
            if pooled else 0.0
        ),
        "engine.cpu_s_per_wall_s":
            (pooled or plain)["cpu_s"] / (pooled or plain)["seconds"],
        "obs.on_overhead_pct":
            100.0 * (plain["calibrated_s"] / quiet["calibrated_s"] - 1.0),
        "obs.spans": plain["obs.spans"],
        "obs.series": plain["obs.series"],
        "trace.overhead_pct":
            100.0 * (traced["calibrated_s"] / plain["calibrated_s"] - 1.0),
        "bench.unattributed_frac": 1.0 - attributed / traced_ns,
    }
    for layer, self_ns in traced["layer_self_ns"].items():
        metrics[f"{layer}.self_frac"] = self_ns / traced_ns
    return metrics


def trace(
    workloads: list[str], seed: int, *, iterations: int | None = 1,
    seconds: float | None = None, passes: int = PASSES,
) -> tuple[dict[str, dict], list[dict]]:
    """The traced run: per-layer metrics per workload, and the spans.

    Workloads run one after the other, each in its own cold worker, and
    every arm runs at ``seed`` itself: counts must repeat exactly.
    """
    results = {}
    spans: list[dict] = []
    for name in workloads:
        started = time.perf_counter()  # the drives count against ``seconds``
        client = WorkerClient(name, seed)
        try:
            workers = client.host["engine.effective_workers"]
            arms = {
                "plain": {"workers": 1}, "traced": {"workers": 1, "traced": True},
                "obs_off": {"workers": 1, "obs": False}, "pooled": {},
            } if name == POOLED_WORKLOAD else {
                "plain": {}, "traced": {"traced": True}, "obs_off": {"obs": False},
            }
            drives = client.request("drives", seed=seed)
            per_iteration = []
            scored: list[dict] = []  # the passes shaped like the measured run's
            records: list[dict] = []
            while not _enough(
                len(per_iteration), started, iterations, seconds, at_least=1
            ):
                replies = {
                    arm: client.request(
                        "round", seed=seed, passes=passes, **options
                    )["passes"]
                    for arm, options in arms.items()
                }
                for arm_records in replies.values():
                    records.extend(arm_records)
                scored.extend(_passed(replies.get("pooled", replies["plain"])))
                per_iteration.append(_iteration_metrics(replies, workers))
            last = client.close()
        except BaseException:
            client.kill()
            raise
        spans.extend(last["spans"])
        per_layer = {
            key: statistics.median(step[key] for step in per_iteration)
            for key in per_iteration[0]
        }
        per_layer.update(drives)
        per_layer["engine.effective_workers"] = workers
        per_layer["bench.passes"] = len(records)
        per_layer["bench.pass_spread_pct"] = _spread_pct(
            [record["work"] / record["calibrated_s"] for record in scored])
        per_layer["bench.raw_work_per_s"] = statistics.median(
            record["work"] / record["seconds"] for record in scored)
        per_layer["bench.host_slowdown"] = statistics.median(
            record["slowdown"] for record in scored)
        failed = _failed_passes(name, seed, records, _pinned(name, seed, 0))
        if last["unrestored"]:
            failed += 1
            print(f"FAILED {name}: boundaries left patched: "
                  f"{last['unrestored']}", file=sys.stderr)
        shown = _typical(replies["traced"])
        results[name] = {
            "attempted": len(records),
            "failed": failed,
            "host": client.host,
            "per_layer": per_layer,
            "boundaries": shown["boundaries"],
            "traced_seconds": shown["seconds"],
        }
    return results, spans


# ---------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------

def _catalogue() -> dict:
    if not CATALOGUE_PATH.is_file():
        raise BenchmarkError(f"{CATALOGUE_PATH} is missing")
    return json.loads(CATALOGUE_PATH.read_text())


def _with_units(values: dict[str, float], specs: list[dict]) -> dict:
    """Catalogue order and units; a missing or extra name is a bug here."""
    names = [spec["name"] for spec in specs]
    if set(names) != set(values):
        raise BenchmarkError(
            f"metric catalogue mismatch: missing {sorted(set(names) - set(values))}"
            f", uncatalogued {sorted(set(values) - set(names))}"
        )
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def report(
    measured: dict[str, dict], traced: dict[str, dict], catalogue: dict,
) -> dict:
    """Print every metric by name with its unit; return the full record."""
    out: dict[str, dict] = {}
    for name, unit in WORKLOAD_UNITS.items():
        if name not in measured and name not in traced:
            continue
        print(f"# {name}: one unit of work is one {unit}")
        entry: dict = {"unit": unit, "attempted": 0, "failed": 0}
        for half, key, specs in (
            (measured, "end_to_end", catalogue["end_to_end"]),
            (traced, "per_layer", catalogue["per_layer"]),
        ):
            if name not in half:
                continue
            entry[key] = _with_units(half[name][key], specs)
            entry["attempted"] += half[name]["attempted"]
            entry["failed"] += half[name]["failed"]
            entry["host"] = half[name]["host"]
            for metric, value in entry[key].items():
                print(f"{name:15s} {metric:36s} {value['value']:>16.6g} "
                      f"{value['unit']}")
        entry["fail_rate"] = entry["failed"] / entry["attempted"]
        print(f"{name:15s} {'fail_rate':36s} {entry['fail_rate']:>16.6g} "
              f"failed/attempted ({entry['failed']}/{entry['attempted']})")
        if name in measured:
            for key in ("pass_rates", "raw_pass_rates", "counts"):
                entry[key] = measured[name][key]
        if name in traced:
            entry["boundaries"] = traced[name]["boundaries"]
            entry["traced_seconds"] = traced[name]["traced_seconds"]
        out[name] = entry
    return out


def _result_line(record: dict[str, dict], single: bool) -> str:
    """The one JSON object a harness reads from the last stdout line."""
    metrics = {}
    for name, entry in record.items():
        for key in ("end_to_end", "per_layer"):
            for metric, value in entry.get(key, {}).items():
                metrics[metric if single else f"{name}.{metric}"] = value
    failed = sum(entry["failed"] for entry in record.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(entry["attempted"] for entry in record.values()),
        "failed": failed,
        "metrics": metrics,
    })


def compare_sets(first: dict[str, dict], second: dict[str, dict], catalogue: dict) -> bool:
    """A/A: two sets of the same code must agree within the bounds."""
    agreed = True
    print(f"{'workload':15s} {'metric':12s} {'first':>14s} {'second':>14s} "
          f"{'diff':>8s} {'bound':>7s}")
    for name in first:
        for spec in catalogue["end_to_end"]:
            a = first[name]["end_to_end"][spec["name"]]
            b = second[name]["end_to_end"][spec["name"]]
            diff = abs(b - a) / a
            verdict = "ok" if diff <= spec["bound"] else "EXCEEDS"
            agreed &= diff <= spec["bound"]
            print(f"{name:15s} {spec['name']:12s} {a:>14.6g} {b:>14.6g} "
                  f"{diff:>8.2%} {spec['bound']:>7.0%} {verdict}")
        if first[name]["counts"] != second[name]["counts"]:
            agreed = False
            print(f"{name:15s} exact counts differ: {first[name]['counts']} "
                  f"!= {second[name]['counts']}")
        for half in (first, second):
            agreed &= half[name]["failed"] == 0
    return agreed


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", choices=sorted(WORKLOAD_UNITS),
                        help="run one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of "
                             f"a fixed {ROUNDS} rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: measured run only; 1: traced run only "
                             "(default: both)")
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--trace-out", help="write the traced run's spans")
    parser.add_argument("--aa", action="store_true",
                        help="two measured sets of the same code, compared "
                             "against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of one pass, one cold start")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help=f"re-pin {FINGERPRINTS_PATH.name}: the first "
                             f"{PINNED_ROUNDS} rounds of --seed 0")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.worker:
        from benchmarks.perf.worker import serve

        return serve(args.worker, args.seed)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("benchmarks/perf measures the repro package under src/, "
              "which is not here", file=sys.stderr)
        return 2
    catalogue = _catalogue()
    names = [args.workload] if args.workload else list(WORKLOAD_UNITS)

    if args.write_fingerprints:
        pinned = measure(
            names, 0, rounds=PINNED_ROUNDS, passes=2, setup_starts=1,
            check_pins=False,
        )
        pins = _pins()
        pins.update(
            (name, result["fingerprints"]) for name, result in pinned.items())
        FINGERPRINTS_PATH.write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return int(any(result["failed"] for result in pinned.values()))

    shape: dict = {"seconds": args.seconds}
    if args.smoke:
        shape = {"rounds": 1, "passes": 1, "setup_starts": 1}
    if args.aa:
        first = measure(names, args.seed, **shape)
        second = measure(names, args.seed, **shape)
        return 0 if compare_sets(first, second, catalogue) else 1

    measured: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    if args.trace != 1:
        measured = measure(names, args.seed, **shape)
    if args.trace != 0:
        traced, spans = trace(
            names, args.seed, seconds=args.seconds,
            passes=1 if args.smoke else PASSES,
        )
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(spans))
    record = report(measured, traced, catalogue)
    if args.out:
        host = next(iter(record.values()))["host"]
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "host": host, "workloads": record}, indent=1))
    print(_result_line(record, single=args.workload is not None))
    if args.workload and args.trace is not None:
        return 0  # harness mode: the verdict is "correct" on the line above
    return int(any(entry["failed"] for entry in record.values()))
