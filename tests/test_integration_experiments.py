"""Integration: every registry row reproduces its paper claims.

One pass over ``EXPERIMENTS`` at smoke (``ci``) scale: each row runs
once, every named claim must hold, and the digest of what it measured
(its result without ``rendered``) must equal ``PINS["rows_ci"]``, so a
reformatted table passes and a moved number does not.  Full scale is
the same gate run by ``python -m repro run all`` in tier 2; F1, E2 and
E6 are also pinned at their runner defaults (``PINS["rows_full"]``).
"""

import functools
import inspect

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import EXPERIMENTS, evaluate, result_json
from repro.cli import _json_payload
from repro.core.taxonomy import Symptom
from repro.workloads.base import run_with_oracle
from tests.pins import PINS, digest, row_data

PAPER_IDS = ["F1"] + [f"E{n}" for n in range(1, 20)]
ABLATION_IDS = [f"A{n}" for n in range(1, 11)]


def _failed(row_id: str, result: dict) -> list[str]:
    """Names of the row's claims that fail."""
    return [
        claim.name
        for claim, held in evaluate(EXPERIMENTS[row_id], result)
        if not held
    ]


@functools.cache
def smoke(row_id: str) -> dict:
    """The row's serial smoke-scale result, computed once per session."""
    row = EXPERIMENTS[row_id]
    return row.run(**row.ci)


@functools.cache
def documented(row_id: str) -> dict:
    """The row's full-scale result: the runner's own defaults."""
    return EXPERIMENTS[row_id].run()


class TestEveryRow:
    @pytest.mark.parametrize("row_id", PAPER_IDS + ABLATION_IDS)
    def test_reproduces_its_claims_at_smoke_scale(self, row_id):
        result = smoke(row_id)
        assert _failed(row_id, result) == []
        assert digest(row_data(result)) == PINS["rows_ci"][row_id]

    @pytest.mark.parametrize("row_id", sorted(PINS["rows_full"]))
    def test_runner_defaults_are_the_documented_scale(self, row_id):
        result = documented(row_id)
        assert _failed(row_id, result) == []
        assert digest(row_data(result)) == PINS["rows_full"][row_id]

    @pytest.mark.parametrize("row_id", [
        row_id for row_id, row in EXPERIMENTS.items()
        if "workers" in inspect.signature(row.run).parameters
    ])
    def test_worker_count_never_changes_it(self, row_id):
        """Scorecards are a function of the seed, not the worker layout:
        the engine derives every trial seed up front and gathers in
        submission order, so one process or two agree byte for byte."""
        row = EXPERIMENTS[row_id]
        if row_id == "E1":  # one trial never reaches the pool
            kwargs = dict(row.ci, n_trials=3)
            serial = row.run(workers=1, **kwargs)
        else:
            kwargs, serial = row.ci, smoke(row_id)
        pooled = row.run(workers=2, **kwargs)
        assert result_json(pooled) == result_json(serial)
        assert evaluate(row, pooled) == evaluate(row, serial)

    @pytest.mark.parametrize("row_id", PAPER_IDS + ABLATION_IDS)
    def test_json_payload_carries_every_key(self, row_id):
        """``repro run <ID> --json`` drops nothing the row measured:
        every key but ``rendered`` arrives, in its one JSON form."""
        result = smoke(row_id)
        payload = _json_payload(row_id, EXPERIMENTS[row_id].title, result)
        carried = {**payload["scorecards"], **payload["metrics"]}
        assert set(carried) == set(row_data(result))
        for key, value in carried.items():
            assert value == result_json(result[key]), key


class TestUnpinnedSeeds:
    def test_e2_counts_a_crypto_crash_as_immediate(self, monkeypatch):
        """At seed 18 a defect breaks one AES round trip's padding: the
        workload reports a crash (§2: an exception is detected at once)
        instead of raising out of the row."""
        crashes = []

        def spy(work, core, reference):
            comparison = run_with_oracle(work, core, reference)
            if comparison.suspect.crashed:
                crashes.append(comparison.suspect)
            return comparison

        monkeypatch.setattr(experiments, "run_with_oracle", spy)
        row = EXPERIMENTS["E2"]
        result = row.run(**{**row.ci, "seed": 18})
        assert any(crash.name == "crypto" for crash in crashes)
        immediate = result["counts"][Symptom.WRONG_ANSWER_IMMEDIATE]
        assert immediate >= len(crashes)


class TestRegistry:
    def test_all_twenty_experiments_registered(self):
        assert [i for i in EXPERIMENTS if i[0] != "A"] == PAPER_IDS

    def test_all_ten_ablations_registered(self):
        assert [i for i in EXPERIMENTS if i[0] == "A"] == ABLATION_IDS

    def test_every_entry_has_title_and_runner(self):
        for row in EXPERIMENTS.values():
            assert row.title and row.paper and callable(row.run)

    def test_every_row_names_its_claims_and_scales_real_parameters(self):
        for row_id, row in EXPERIMENTS.items():
            names = [claim.name for claim in row.claims]
            assert names and len(set(names)) == len(names), row_id
            assert all(claim.paper for claim in row.claims), row_id
            assert set(row.ci) <= set(
                inspect.signature(row.run).parameters
            ), row_id


# Checks a claim gate cannot express: E2's claim only bites at the
# documented scale, E10 must size itself to a tiny fleet, and E12 must
# not count a harness bug as a detection.

class TestE2Symptoms:
    def test_observes_multiple_symptom_classes(self):
        # the 12 smoke-scale cores show one class; the claim bites at 20
        result = documented("E2")
        assert len(result["per_core_rates"]) >= 20
        assert _failed("E2", result) == []


class TestE10Isolation:
    def test_fewer_machines_than_bad_cores(self):
        # one quarantined core per machine, and the title counts them
        result = experiments.run_isolation(n_machines=3)
        assert result["core_stranded"] == 3
        assert "(3 bad cores)" in result["rendered"]
        assert result["machine_stranded"] == result["machine_healthy_stranded"]


class TestE12Abft:
    def test_a_harness_bug_is_not_counted_as_a_detection(self, monkeypatch):
        def broken(core, matrix):
            raise TypeError("harness bug")

        monkeypatch.setattr(experiments, "checksummed_lu", broken)
        with pytest.raises(TypeError):
            EXPERIMENTS["E12"].run()
