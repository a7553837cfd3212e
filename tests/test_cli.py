"""CLI entry point."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.analysis.experiments
from repro.analysis.experiments import (
    EXPERIMENTS,
    Claim,
    Experiment,
    result_json,
)
from repro.cli import main
from repro.core.events import CeeEvent, EventKind, Reporter
from repro.core.taxonomy import Symptom


@pytest.fixture
def quick_store(monkeypatch):
    """Shrink the E16 campaign so CLI plumbing tests stay fast."""
    monkeypatch.setitem(EXPERIMENTS["E16"].ci, "ticks", 120)


def _stub(run, held=True) -> Experiment:
    claim = Claim("stub_claim", "§0 stub", lambda result: held)
    return Experiment("stub", "§0 stub", run, {}, (claim,))


class TestCli:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("F1", "E1", "E14"):
            assert eid in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "E13"]) == 0
        out = capsys.readouterr().out
        assert "E13" in out and "complaint" in out

    def test_run_lowercase_id(self, capsys):
        assert main(["run", "e13"]) == 0

    def test_unknown_id_fails_politely(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_ci_scale_kwargs_accepted(self, capsys):
        assert main(["run", "E10", "--scale", "ci"]) == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cases_screens_all(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "self_inverting_aes" in out
        assert "confessed: True" in out


class TestClosedPipe:
    def test_reader_closing_after_one_line_ends_quietly(self):
        """``repro run E2 | head -1``: the reader leaves while the row
        still runs, so the table's write meets a closed pipe.  The CLI
        stops with status 1, no traceback and no false "raised" line."""
        src = str(Path(repro.analysis.experiments.__file__).parents[2])
        env = {
            **os.environ, "PYTHONUNBUFFERED": "1",
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "E2", "--scale", "ci"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert first.decode().startswith("== E2:")
        assert "Traceback" not in err and "BrokenPipe" not in err, err
        assert "raised" not in err, err


class TestSeedFlag:
    def test_seed_is_forwarded_and_reproducible(self, capsys):
        assert main(["run", "E13", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "E13", "--seed", "9"]) == 0
        second = capsys.readouterr().out
        # Strip the wall-clock line; everything else must match.
        strip = lambda s: [  # noqa: E731
            line for line in s.splitlines() if not line.startswith("[")
        ]
        assert strip(first) == strip(second)

    def test_seed_on_seedless_runner_warns_but_runs(
        self, capsys, monkeypatch
    ):
        def seedless():
            return {"rendered": "seedless ok"}

        monkeypatch.setitem(EXPERIMENTS, "EX", _stub(seedless))
        assert main(["run", "EX", "--seed", "9"]) == 0
        captured = capsys.readouterr()
        assert "does not take a seed" in captured.err
        assert "seedless ok" in captured.out


class TestClaimGate:
    """``run`` is a gate: its exit status says whether the paper's
    claims held, not merely that a table was printed."""

    def test_run_prints_one_verdict_line_per_claim(self, capsys):
        assert main(["run", "E13"]) == 0
        out = capsys.readouterr().out
        for claim in EXPERIMENTS["E13"].claims:
            assert f"✔ {claim.name} — {claim.paper}" in out

    def test_ablations_run_by_id(self, capsys):
        assert main(["run", "A3", "--scale", "ci"]) == 0
        assert "A3: voter-reliability ablation" in capsys.readouterr().out

    def test_failed_claim_exits_one(self, capsys, monkeypatch):
        def run():
            return {"rendered": "plausible table"}

        monkeypatch.setitem(EXPERIMENTS, "EX", _stub(run, held=False))
        assert main(["run", "EX"]) == 1
        out = capsys.readouterr().out
        assert "plausible table" in out
        assert "✘ stub_claim — §0 stub" in out

    def test_run_all_outlives_a_failed_and_a_raising_row(
        self, capsys, monkeypatch
    ):
        def run(label):
            if label == "raises":
                raise TypeError("harness bug")
            return {"rendered": f"table of {label}"}

        monkeypatch.setattr(repro.analysis.experiments, "EXPERIMENTS", {
            "X1": _stub(lambda: run("fails"), held=False),
            "X2": _stub(lambda: run("raises")),
            "X3": _stub(lambda: run("holds")),
        })
        assert main(["run", "all"]) == 1
        captured = capsys.readouterr()
        assert "✘ stub_claim" in captured.out          # X1 failed its claim
        assert "✘ X2 raised" in captured.out           # X2 is a failed row
        assert "TypeError: harness bug" in captured.err
        assert "table of holds" in captured.out        # X3 still ran
        assert captured.out.count("✔ stub_claim") == 1


class TestJsonScorecards:
    def test_serve_json_is_strict_and_parseable(self, capsys):
        assert main(["run", "E15", "--scale", "ci", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "E15"
        assert set(payload["scorecards"]) == {
            "unhardened", "hardened", "validator_only"
        }
        assert "escape_rate" in payload["scorecards"]["hardened"]
        assert "escape_reduction" in payload["metrics"]

    def test_store_json_is_strict_and_parseable(self, capsys, quick_store):
        assert main(["run", "E16", "--scale", "ci", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "E16"
        assert set(payload["scorecards"]) == {
            "unprotected", "quorum_only", "no_encrypt_verify",
            "generic_weights", "protected",
        }
        card = payload["scorecards"]["protected"]
        for field in (
            "escape_rate", "unrecoverable_loss_rate",
            "write_amplification", "quarantine_tick",
        ):
            assert field in card
        # Strict JSON end to end: metrics with non-finite values (an
        # infinite escape-rate reduction) must arrive as "inf", and the
        # whole document must survive a strict re-encode.
        json.dumps(payload, allow_nan=False)
        assert payload["metrics"]["escape_reduction"] == "inf"

    def test_json_seed_is_reproducible(self, capsys, quick_store):
        argv = ["run", "E16", "--scale", "ci", "--json", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestJsonGrids:
    def test_grid_row_carries_every_cell(self, capsys):
        assert main(["run", "E17", "--scale", "ci", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        json.dumps(payload, allow_nan=False)
        grid = payload["metrics"]["grid"]
        cells = [card for arms in grid.values() for card in arms.values()]
        assert len(cells) == 9
        assert all("escape_rate" in card for card in cells)
        assert set(payload["metrics"]["comparisons"]) == set(grid)


class TestResultJson:
    def test_every_kind_has_one_form(self):
        event = CeeEvent(
            time_days=1.5, machine_id="m0", core_id=None,
            kind=EventKind.CRASH, reporter=Reporter.AUTOMATED,
            application="app", detail="",
        )
        result = {
            "counts": {Symptom.MACHINE_CHECK: np.int64(2)},
            "by_rate": {0.5: math.inf, 2: -math.inf, 3.0: math.nan},
            "flips": {5, 1, 3},
            "events": [event],
            "pair": (np.float64(0.25), np.bool_(True)),
            "undefined": None,
        }
        assert result_json(result) == {
            "counts": {"MACHINE_CHECK": 2},
            "by_rate": {"0.5": "inf", "2": "-inf", "3.0": "nan"},
            "flips": [1, 3, 5],
            "events": [
                [1.5, "m0", None, "CRASH", "AUTOMATED", "app", ""]
            ],
            "pair": [0.25, True],
            "undefined": None,
        }
        json.dumps(result_json(result), allow_nan=False)

    def test_colliding_keys_raise(self):
        with pytest.raises(TypeError, match="'1'"):
            result_json({1: "int", "1": "str"})

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="object"):
            result_json({"x": object()})


class TestMetricsCommand:
    def test_metrics_prometheus_output(self, capsys):
        assert main(["metrics", "e15"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serving_requests_total counter" in out
        assert "# TYPE serving_latency_ms histogram" in out
        assert 'serving_latency_ms_bucket{le="+Inf"}' in out

    def test_metrics_json_output(self, capsys):
        assert main(["metrics", "e16", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["storage_writes_total"]["kind"] == "counter"
        assert payload["storage_repair_latency_ms"]["kind"] == "histogram"

    def test_metrics_e1_source(self, capsys):
        assert main(["metrics", "e1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fleet_ticks_total" in payload
        assert "detection_confusion" in payload

    def test_metrics_seed_is_reproducible(self, capsys):
        assert main(["metrics", "e15", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", "e15", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestTraceCommand:
    def test_trace_e15_prints_incident_timeline(self, capsys):
        assert main(["trace", "e15"]) == 0
        out = capsys.readouterr().out
        assert "corruption forensics" in out
        assert "first corrupt op" in out
        assert "quarantine decision" in out
        assert "serving.request" in out

    def test_trace_e16_prints_incident_timeline(self, capsys):
        assert main(["trace", "e16"]) == 0
        out = capsys.readouterr().out
        assert "corruption forensics" in out
        assert "storage.put" in out

    def test_trace_e17_comes_from_the_campaign_table(self, capsys):
        assert main(["trace", "e17"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== corruption forensics: E17 full, seed 0")
        # a non-empty timeline: at least one incident reached quarantine
        assert "incident core" in out
        assert "quarantine decision  tick" in out
        assert "serving.scale_request" in out

    def test_unknown_campaign_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "e99"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'e99'" in err and "e15" in err

    def test_trace_seed_is_reproducible(self, capsys):
        assert main(["trace", "e15", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "e15", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
