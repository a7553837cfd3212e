"""Smoke test of the repo benchmark (tier 2: ``pytest benchmarks``).

One ``--smoke`` run (one round of one pass per workload, then the traced
run) is shared by the tests below; the tracer's install/restore contract
is additionally checked in-process.
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CATALOGUE["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("perf")
    out, spans = out_dir / "out.json", out_dir / "spans.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(out), "--trace-out", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return {
        "stdout": done.stdout.splitlines(),
        "record": json.loads(out.read_text())["workloads"],
        "spans": json.loads(spans.read_text()),
    }


def test_catalogue_is_within_the_contract():
    assert set(CATALOGUE) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(CATALOGUE["workloads"]) <= 8
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer")
        for entry in CATALOGUE[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert all(0 < m["bound"] <= 0.25 for m in CATALOGUE["end_to_end"])
    setup = next(m for m in CATALOGUE["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CATALOGUE["end_to_end"])


def test_workload_tables_agree():
    from benchmarks.perf.cli import WORKLOAD_UNITS
    from benchmarks.perf.workloads import WORKLOADS as DEFINED

    assert list(WORKLOAD_UNITS) == WORKLOADS == list(DEFINED)


def test_only_this_file_is_collected_by_pytest():
    collected = sorted(
        path.name for pattern in ("test_*.py", "bench_*.py")
        for path in HERE.glob(pattern)
    )
    assert collected == [Path(__file__).name]


def test_every_metric_is_printed_with_its_unit(smoke):
    printed = {}
    for line in smoke["stdout"]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] in WORKLOADS:
            printed[fields[0], fields[1]] = fields[3]
    for workload in WORKLOADS:
        for metric in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
            assert printed.get((workload, metric["name"])) == metric["unit"], (
                workload, metric["name"])
        assert (workload, "fail_rate") in printed


def test_last_line_is_the_result_object(smoke):
    result = json.loads(smoke["stdout"][-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_self_times_and_unattributed_add_up_to_the_pass(smoke):
    for workload, entry in smoke["record"].items():
        layers = entry["per_layer"]
        fractions = [
            metric["value"] for name, metric in layers.items()
            if name.endswith(".self_frac")
        ]
        unattributed = layers["bench.unattributed_frac"]["value"]
        assert all(0.0 <= value <= 1.0 for value in fractions + [unattributed])
        assert sum(fractions) + unattributed == pytest.approx(1.0, abs=1e-9)
        # and the layer fractions are the boundaries' own self times
        self_ns = sum(b["self_ns"] for b in entry["boundaries"].values())
        assert self_ns / (entry["traced_seconds"] * 1e9) == pytest.approx(
            sum(fractions), abs=1e-6), workload


def test_the_designed_split_shows(smoke):
    record = smoke["record"]

    def layer(workload, name):
        return record[workload]["per_layer"][name]["value"]

    assert layer("fleet_grid", "silicon.ops") == 0
    assert record["fleet_grid"]["boundaries"]["silicon.execute"]["calls"] == 0
    op_path = sum(
        layer("op_stream", f"{name}.self_frac")
        for name in ("silicon", "workloads", "mitigation")
    )
    assert op_path > 0.5
    for workload in WORKLOADS:
        assert (layer(workload, "storage.self_frac") > 0) == (
            workload == "store_campaign")
        assert (layer(workload, "serving.self_frac") > 0) == (
            workload == "serve_campaign")


def test_spans_carry_parent_and_pass(smoke):
    spans = smoke["spans"]
    assert spans
    by_id = {(span["pass"], span["id"]): span for span in spans}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is not None:
            parent = by_id[span["pass"], span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
    assert {span["pass"].split("/")[0] for span in spans} == set(WORKLOADS)


def test_tracer_restores_every_boundary():
    from benchmarks.perf.tracing import BOUNDARIES, LayerTracer
    from repro.silicon.core import Core

    def resolve(target):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        return vars(owner)[attr]

    before = {target: resolve(target) for *_, target in BOUNDARIES}
    tracer = LayerTracer()
    tracer.install()
    try:
        assert all(
            resolve(target) is not original
            for target, original in before.items()
        )
        Core("t/0").execute("add", 1, 2)
        calls = tracer.boundaries()
        assert calls["silicon.execute"]["calls"] == 1
        assert calls["silicon.golden_call"]["calls"] == 1
        # the child's time is taken out of the parent's self time
        assert (
            calls["silicon.execute"]["self_ns"]
            == calls["silicon.execute"]["total_ns"]
            - calls["silicon.golden_call"]["total_ns"]
        )
    finally:
        tracer.uninstall()
    assert tracer.unrestored() == []
    for target, original in before.items():
        assert resolve(target) is original, target


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "op_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
