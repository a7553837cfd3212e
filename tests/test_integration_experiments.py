"""Integration: every registry row reproduces its paper claims.

One pass over ``EXPERIMENTS`` at smoke (``ci``) scale: each row runs
once, every named claim must hold, and ``sha256(rendered)`` must equal
the literal captured at 51dbc88, before the runners were touched.  Full
scale is the same gate run by ``python -m repro run all`` in tier 2.
"""

import functools
import hashlib
import inspect

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import EXPERIMENTS, evaluate, result_json
from repro.cli import _json_payload
from repro.core.taxonomy import Symptom
from repro.workloads.base import run_with_oracle

PAPER_IDS = ["F1"] + [f"E{n}" for n in range(1, 20)]
ABLATION_IDS = [f"A{n}" for n in range(1, 11)]

#: sha256(rendered) of every row at smoke scale
RENDERED_CI = {
    "F1": "c8d25cfb5372beac5f0c1e02499837c03a42506369ba21d30191bce3cf37ed07",
    "E1": "cb151acc94236275152e27871013e6d365c61addce934067ff0b166d0f17b2d1",
    "E2": "1b8159af16107c8c45d1fa5147b00be05d15acb5e4bcaeb1dbcdf0608e42d104",
    "E3": "bb6cd7a39b3c2bcfc81dabd3e80f93e49e0a5516ddcec3c400858e1377920878",
    "E4": "888c846860fb8be4bf67c13eb94e5bc7fd750f4d1f165ec92c60e59a95dc5317",
    "E5": "01424d197769df5acac1de1af9331b6111aad4f7731ec2e2530a0a9762de78ac",
    "E6": "389d5e5b794e73a1764ffe0404547906b35731051daaacd44395dcdfcdc39fbb",
    "E7": "db0606b3bc704e685bab1dbd0129a319f6981f283b02388aef3b76bb7efe12f6",
    "E8": "30fbbe48398971de716fc8e793b98fcd1fb952b84fd63ed8a9362f2acbf324fa",
    "E9": "c4c9a88804e6ac9caa44119f4d20b77aea2f0cd23771164152c7404652dbd2c9",
    "E10": "eb5c434fa53f4aa75d6ce7fefb1e5a20c01829ff365a7355f4d93d418907e6ea",
    "E11": "6542c6cf0c6aecfed212254c57714537a535bb194d347410a02b25bce61e6495",
    "E12": "2f4031a8dfe5229d46d21da5d7d5887ce0e0774bf93a8a925b608f6e12d0aa5d",
    "E13": "e37b2f9b79d029f4ac8c4440734e0c27592683569a8634ae6551f0e697ead412",
    "E14": "4d392614e3dfce5ea3e170f95d65928bdeae8a9c56f6faa3c8359076e92e00e1",
    "E15": "039a05d0f3a7da98d6e2dff9e28ace6f797fb95fe992a06307ac7b5b9b5e567c",
    "E16": "b434ed9bc989d1a995eddee3b93ea56391c17357d1c6bdb3fb45c02763ee49d4",
    "E17": "ef777d6cb5430a76b6742ebec5250e4ac7a890005b87dd435f5e03ac5ea6de53",
    "E18": "0b44d260e196f6c202d0e8814cca5ce260ec370ef122019186a40c10cfa06f2b",
    "E19": "0b3bd3b684a2f17f8d3eb857054f3cc0554ea524da7511eb643fbae3807bf7f3",
    "A1": "3882829438c13b6856c54c1271fdadaef19ad62ab05bacbc9f1708a1ce70720b",
    "A2": "dbfe143b337c25b1175a08fb9eda58a554193872298f56b15dfcd0f2e18c8b29",
    "A3": "d5b0b4844d5c4d2a631c26c0cb9d3f33549eec6291a28f35931735f2e4f3efa1",
    "A4": "d76ce56c7cdc0e7f9a601e767df6727d6ca673e65dee2f24f6e0843370718129",
    "A5": "2eaa0c5fe40a18045ab44d071d544dc09d93d72fb4aa3704aa3c759c1adb55d0",
    "A6": "f694caa02e32b4b8c32818bcbce0b8205a8347e33563a1a9326b6bbba4907f5b",
    "A7": "52f67cbd418fd80f7da54f9a68524edc05a0b46f8a9c835daa388a41db0467eb",
    "A8": "f2912df055de39645fb3acdd907571c9ad90cca72a62927f75c797e61df093f9",
    "A9": "6102b0037b1d2124ac2e4e3f20adf05b316c749f2af6ab3d72042f92370c3634",
    "A10": "c41b4717fce49ef1a5800f4e67c3b4e1a8d5ca85fc5b58df107a02719f2565a8",
}

#: the three rows whose runner default moved to the scale EXPERIMENTS.md
#: quotes: sha256(rendered) of the parent's full-scale bench output
RENDERED_DOCUMENTED = {
    "F1": "89490c95659bcfe59c28052208fcaaeab9e3502188f6337c1e5ab3d66f88a8f8",
    "E2": "e27103ec95f9eb1439aa9dcde19fb2df02e8f822290438dc017700799ef1a2b8",
    "E6": "2a4af42ddb4647ec29a8bc75c8f0f5614c39dbc0f446c6c53e26ae24fd591100",
}


def _digest(result: dict) -> str:
    return hashlib.sha256(result["rendered"].encode()).hexdigest()


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
        assert _digest(result) == RENDERED_CI[row_id]

    @pytest.mark.parametrize("row_id", sorted(RENDERED_DOCUMENTED))
    def test_runner_defaults_are_the_documented_scale(self, row_id):
        result = documented(row_id)
        assert _failed(row_id, result) == []
        assert _digest(result) == RENDERED_DOCUMENTED[row_id]

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
        assert set(carried) == set(result) - {"rendered"}
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
