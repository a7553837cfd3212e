"""Tests for the ``repro.lint`` invariant linter.

Covers, per the PR-5 acceptance criteria:

- positive *and* negative fixture snippets for every rule id;
- ``# repro: noqa-RULE`` suppression semantics;
- baseline round-trip (save -> load -> split) and the ratchet;
- the ``--json`` output schema;
- the meta-gate: ``repro lint src tests benchmarks scripts`` is clean
  against the committed baseline (the same check CI runs).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    Finding,
    LintConfig,
    RULES,
    Severity,
    lint_source,
    run_lint,
)
from repro.lint import baseline as baseline_mod
from repro.lint.engine import PARSE_RULE_ID

REPO = Path(__file__).resolve().parent.parent


def rule_ids(findings: list[Finding]) -> list[str]:
    return [finding.rule_id for finding in findings]


def lint_snippet(source: str, rel_path: str = "src/repro/snippet.py",
                 **config_kwargs) -> list[Finding]:
    config = LintConfig(**config_kwargs) if config_kwargs else None
    return lint_source(
        textwrap.dedent(source), rel_path=rel_path, config=config
    )


class TestDet001UnseededRandom:
    def test_module_level_random_call_flagged(self):
        findings = lint_snippet("""
            import random
            x = random.randint(0, 10)
        """)
        assert rule_ids(findings) == ["DET001"]
        assert "hidden" in findings[0].message

    def test_from_import_of_module_fn_flagged(self):
        findings = lint_snippet("from random import shuffle\n")
        assert rule_ids(findings) == ["DET001"]

    def test_legacy_numpy_random_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert rule_ids(findings) == ["DET001"]

    def test_aliased_import_flagged(self):
        findings = lint_snippet("""
            import random as rnd
            rnd.seed(0)
        """)
        assert rule_ids(findings) == ["DET001"]

    def test_seeded_generator_ok(self):
        # seed threaded from a parameter: clean for DET001 *and* DET004
        findings = lint_snippet("""
            import numpy as np
            def make(seed):
                rng = np.random.default_rng(seed)
                seq = np.random.SeedSequence(seed)
                return rng.integers(0, 10)
        """)
        assert findings == []

    def test_instance_random_ok(self):
        # random.Random(seed) is explicit-state, not the module RNG
        findings = lint_snippet("""
            import random
            r = random.Random(7)
            x = r.randint(0, 10)
        """)
        assert findings == []


class TestDet002WallClock:
    def test_time_time_flagged(self):
        findings = lint_snippet("""
            import time
            t = time.time()
        """)
        assert rule_ids(findings) == ["DET002"]

    def test_from_time_import_call_flagged(self):
        findings = lint_snippet("""
            from time import perf_counter
            t = perf_counter()
        """)
        assert rule_ids(findings) == ["DET002"]

    def test_datetime_now_flagged(self):
        findings = lint_snippet("""
            import datetime
            t = datetime.datetime.now()
        """)
        assert rule_ids(findings) == ["DET002"]

    def test_allowlisted_file_allowed(self):
        findings = lint_snippet(
            "import time\nt = time.perf_counter()\n",
            rel_path="src/repro/engine/stopwatch.py",
            wallclock_allowed=("src/repro/engine/stopwatch.py",),
        )
        assert findings == []

    def test_benchmarks_dir_allowed(self):
        findings = lint_snippet(
            "import time\nt = time.time()\n",
            rel_path="benchmarks/perf/drives.py",
        )
        assert findings == []

    def test_simulated_clock_ok(self):
        findings = lint_snippet("""
            def now_ms(tick, tick_ms):
                return tick * tick_ms
        """)
        assert findings == []


class TestDet003UnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        findings = lint_snippet("""
            def f(out):
                for x in {3, 1, 2}:
                    out.append(x)
        """)
        assert rule_ids(findings) == ["DET003"]
        assert findings[0].severity is Severity.WARNING

    def test_list_of_set_call_flagged(self):
        findings = lint_snippet("xs = list(set([3, 1, 2]))\n")
        assert rule_ids(findings) == ["DET003"]

    def test_join_of_set_comp_flagged(self):
        findings = lint_snippet(
            "text = ','.join({str(x) for x in range(3)})\n"
        )
        assert rule_ids(findings) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        findings = lint_snippet("ys = [x for x in set((1, 2))]\n")
        assert rule_ids(findings) == ["DET003"]

    def test_sorted_set_ok(self):
        findings = lint_snippet("""
            def f(out):
                for x in sorted({3, 1, 2}):
                    out.append(x)
                return sorted(set((2, 1)))
        """)
        assert findings == []

    def test_order_insensitive_sinks_ok(self):
        findings = lint_snippet("""
            n = len(set((1, 2)))
            total = sum({1, 2})
            hit = 3 in {1, 2, 3}
        """)
        assert findings == []


class TestSafe001WeightTable:
    def _tree(self, tmp_path: Path, kinds: list[str], weighted: list[str]):
        events = tmp_path / "events.py"
        weights = tmp_path / "weights.py"
        members = "\n".join(
            f'    {kind} = "{kind.lower()}"' for kind in kinds
        )
        events.write_text(
            "import enum\n\nclass EventKind(enum.Enum):\n" + members + "\n"
        )
        entries = "\n".join(
            f"    EventKind.{kind}: SuspicionWeight(1.0, 'r'),"
            for kind in weighted
        )
        weights.write_text(
            "SUSPICION_WEIGHTS = {\n" + entries + "\n}\n"
        )
        return LintConfig(
            events_path="events.py", weights_path="weights.py",
        )

    def test_missing_weight_flagged(self, tmp_path):
        config = self._tree(tmp_path, ["CRASH", "NEW_KIND"], ["CRASH"])
        result = run_lint([], root=tmp_path, config=config)
        assert rule_ids(result.new) == ["SAFE001"]
        assert "NEW_KIND" in result.new[0].message
        assert result.new[0].path == "events.py"

    def test_stale_weight_flagged(self, tmp_path):
        config = self._tree(tmp_path, ["CRASH"], ["CRASH", "GONE"])
        result = run_lint([], root=tmp_path, config=config)
        assert rule_ids(result.new) == ["SAFE001"]
        assert "stale" in result.new[0].message

    def test_complete_table_clean(self, tmp_path):
        config = self._tree(tmp_path, ["CRASH", "MCE"], ["CRASH", "MCE"])
        result = run_lint([], root=tmp_path, config=config)
        assert result.new == []

    def test_real_repo_table_is_complete(self):
        result = run_lint(
            [], root=REPO, config=LintConfig(select=frozenset({"SAFE001"}))
        )
        assert result.new == []


class TestSafe002DeclaredNames:
    @pytest.fixture()
    def config(self, tmp_path) -> tuple[LintConfig, Path]:
        (tmp_path / "names.py").write_text(
            'GOOD_TOTAL = "good_total"\nSPAN_OP = "engine.op"\n'
        )
        return LintConfig(obs_names_path="names.py"), tmp_path

    def _lint(self, source: str, config: tuple[LintConfig, Path]):
        cfg, root = config
        return lint_source(
            textwrap.dedent(source),
            rel_path="src/repro/mod.py", config=cfg, root=root,
        )

    def test_undeclared_metric_flagged(self, config):
        findings = self._lint("""
            from repro import obs
            obs.metrics.counter("typo_total").inc()
        """, config)
        assert rule_ids(findings) == ["SAFE002"]
        assert "typo_total" in findings[0].message

    def test_undeclared_span_flagged(self, config):
        findings = self._lint("""
            from repro import obs
            with obs.tracer.span("engine.oops"):
                pass
        """, config)
        assert rule_ids(findings) == ["SAFE002"]

    def test_dynamic_name_flagged(self, config):
        findings = self._lint("""
            from repro import obs
            def f(part):
                obs.metrics.counter(f"{part}_total").inc()
        """, config)
        assert rule_ids(findings) == ["SAFE002"]
        assert "dynamically" in findings[0].message

    def test_declared_names_clean(self, config):
        findings = self._lint("""
            from repro import obs
            obs.metrics.counter("good_total").inc()
            with obs.tracer.span("engine.op"):
                pass
        """, config)
        assert findings == []

    def test_tests_are_out_of_scope(self, config):
        cfg, root = config
        findings = lint_source(
            'from repro import obs\nobs.metrics.counter("scratch").inc()\n',
            rel_path="tests/test_mod.py", config=cfg, root=root,
        )
        assert findings == []

    def test_every_emitted_name_is_declared_in_repo(self):
        result = run_lint(
            ["src"], root=REPO,
            config=LintConfig(select=frozenset({"SAFE002"})),
        )
        assert result.new == []


class TestPerf001Slots:
    CONFIG = dict(slots_modules=("src/repro/hot.py",))

    def test_slotless_dataclass_in_hot_module_flagged(self):
        findings = lint_snippet("""
            import dataclasses

            @dataclasses.dataclass
            class Record:
                x: int
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert rule_ids(findings) == ["PERF001"]

    def test_slots_kwarg_clean(self):
        findings = lint_snippet("""
            import dataclasses

            @dataclasses.dataclass(frozen=True, slots=True)
            class Record:
                x: int
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert findings == []

    def test_explicit_slots_clean(self):
        findings = lint_snippet("""
            import dataclasses

            @dataclasses.dataclass
            class Record:
                __slots__ = ("x",)
                x: int
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert findings == []

    def test_cold_module_not_required(self):
        findings = lint_snippet("""
            import dataclasses

            @dataclasses.dataclass
            class Report:
                x: int
        """, rel_path="src/repro/cold.py", **self.CONFIG)
        assert findings == []

    def test_hot_table_modules_exist(self):
        for rel in LintConfig().slots_modules:
            assert (REPO / rel).is_file(), f"stale slots table entry {rel}"


class TestPerf002PerCoreLoops:
    CONFIG = dict(percore_loop_modules=("src/repro/hot.py",))

    def test_for_loop_over_cores_flagged(self):
        findings = lint_snippet("""
            def scan(machines):
                for machine in machines:
                    for core in machine.cores:
                        core.touch()
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert rule_ids(findings) == ["PERF002"]

    def test_comprehension_over_cores_flagged(self):
        findings = lint_snippet("""
            def scan(machines):
                return [c for m in machines for c in m.cores]
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert rule_ids(findings) == ["PERF002"]

    def test_cores_outside_iterable_clean(self):
        # .cores in the element/body is counting, not per-core looping.
        findings = lint_snippet("""
            def total(machines):
                return sum(len(m.cores) for m in machines)
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert findings == []

    def test_noqa_suppresses(self):
        findings = lint_snippet("""
            def scan(machines):
                return [c for m in machines for c in m.cores]  # repro: noqa-PERF002 -- compat path
        """, rel_path="src/repro/hot.py", **self.CONFIG)
        assert findings == []

    def test_cold_module_not_checked(self):
        findings = lint_snippet("""
            def scan(machines):
                for machine in machines:
                    for core in machine.cores:
                        core.touch()
        """, rel_path="src/repro/cold.py", **self.CONFIG)
        assert findings == []

    def test_percore_table_modules_exist(self):
        for rel in LintConfig().percore_loop_modules:
            assert (REPO / rel).is_file(), f"stale per-core table entry {rel}"

    def test_repo_hot_paths_clean(self):
        result = run_lint(
            ["src"], root=REPO,
            config=LintConfig(select=frozenset({"PERF002"})),
        )
        assert result.new == []


class TestApi001MutableDefaults:
    def test_list_default_flagged(self):
        findings = lint_snippet("def f(xs=[]):\n    return xs\n")
        assert rule_ids(findings) == ["API001"]

    def test_dict_call_default_flagged(self):
        findings = lint_snippet("def f(m=dict()):\n    return m\n")
        assert rule_ids(findings) == ["API001"]

    def test_kwonly_and_lambda_defaults_flagged(self):
        findings = lint_snippet("""
            def f(*, acc={}):
                return acc
            g = lambda xs=[]: xs
        """)
        assert rule_ids(findings) == ["API001", "API001"]

    def test_none_default_ok(self):
        findings = lint_snippet("""
            def f(xs=None, n=0, name="x", pair=(1, 2)):
                return xs or []
        """)
        assert findings == []


class TestSuppressions:
    SOURCE = """
        import time
        t = time.time()  # repro: noqa-DET002 -- operator display only
    """

    def test_noqa_rule_suppresses(self):
        assert lint_snippet(self.SOURCE) == []

    def test_noqa_other_rule_does_not_suppress(self):
        source = "import time\nt = time.time()  # repro: noqa-DET001\n"
        assert rule_ids(lint_snippet(source)) == ["DET002"]

    def test_bare_noqa_suppresses_everything(self):
        source = "import time\nt = time.time()  # repro: noqa\n"
        assert lint_snippet(source) == []

    def test_noqa_on_other_line_does_not_leak(self):
        source = (
            "import time  # repro: noqa-DET002\n"
            "t = time.time()\n"
        )
        assert rule_ids(lint_snippet(source)) == ["DET002"]

    def test_suppressed_count_reported(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\nt = time.time()  # repro: noqa-DET002\n"
        )
        result = run_lint(["mod.py"], root=tmp_path)
        assert result.suppressed == 1
        assert result.new == []


class TestBaseline:
    def _findings(self, tmp_path: Path):
        (tmp_path / "mod.py").write_text(
            "import time\na = time.time()\nb = time.time()\n"
        )
        return run_lint(["mod.py"], root=tmp_path).new

    def test_round_trip(self, tmp_path):
        findings = self._findings(tmp_path)
        path = tmp_path / "baseline.json"
        baseline_mod.save(path, findings)
        loaded = baseline_mod.load(path)
        assert loaded == baseline_mod.count_fingerprints(findings)
        new, grandfathered = baseline_mod.split_new(findings, loaded)
        assert new == [] and len(grandfathered) == 2

    def test_ratchet_catches_third_occurrence(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = baseline_mod.count_fingerprints(findings)
        (tmp_path / "mod.py").write_text(
            "import time\na = time.time()\nb = time.time()\n"
            "c = time.time()\n"
        )
        result = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert len(result.grandfathered) == 2
        assert len(result.new) == 1
        assert result.exit_status == 1

    def test_fixed_findings_shrink_quietly(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = baseline_mod.count_fingerprints(findings)
        (tmp_path / "mod.py").write_text("import time\n")
        result = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert result.new == [] and result.exit_status == 0

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99}')
        with pytest.raises(baseline_mod.BaselineError):
            baseline_mod.load(path)


class TestCliAndJson:
    def _write_bad(self, tmp_path: Path) -> Path:
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        return bad

    def test_gate_fails_on_seeded_violation(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        status = repro_main(
            ["lint", str(bad), "--root", str(tmp_path), "--no-baseline"]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "hint:" in out

    def test_json_schema(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        status = repro_main(
            ["lint", "bad.py", "--root", str(tmp_path), "--json",
             "--no-baseline"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["files_scanned"] == 1
        assert payload["new_count"] == 1
        assert payload["baseline_used"] is False
        assert payload["stale_baseline_count"] == 0
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "end_line", "col",
            "message", "hint", "baselined",
        }
        assert finding["rule"] == "DET002"
        assert finding["path"] == "bad.py"
        assert finding["line"] == 2
        assert finding["end_line"] == 2
        assert finding["baselined"] is False

    def test_write_then_gate_green(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        assert repro_main(
            ["lint", "bad.py", "--root", str(tmp_path), "--write-baseline"]
        ) == 0
        capsys.readouterr()
        assert repro_main(
            ["lint", "bad.py", "--root", str(tmp_path)]
        ) == 0
        payload = json.loads((tmp_path / "lint-baseline.json").read_text())
        assert payload["version"] == 1 and len(payload["findings"]) == 1

    def test_unknown_path_is_usage_error(self, tmp_path):
        assert repro_main(
            ["lint", "nope.py", "--root", str(tmp_path)]
        ) == 2

    def test_select_unknown_rule_exits(self, tmp_path):
        self._write_bad(tmp_path)
        with pytest.raises(SystemExit):
            repro_main(
                ["lint", "bad.py", "--root", str(tmp_path),
                 "--select", "NOPE999"]
            )

    def test_list_rules_covers_rule_pack(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = run_lint(["broken.py"], root=tmp_path)
        assert rule_ids(result.new) == [PARSE_RULE_ID]


class TestMetaGate:
    def test_rule_pack_has_required_families(self):
        families = {rule_id[:-3] for rule_id in RULES}
        assert {"DET", "SAFE", "PERF", "API", "ARCH", "SHM", "OBS"} \
            <= families
        assert len(RULES) >= 12

    def test_repo_is_clean_against_committed_baseline(self):
        baseline_path = REPO / "lint-baseline.json"
        assert baseline_path.is_file(), "lint-baseline.json must be committed"
        baseline = baseline_mod.load(baseline_path)
        result = run_lint(
            ["src", "tests", "benchmarks", "scripts"],
            root=REPO, baseline=baseline,
        )
        rendered = "\n".join(f.render() for f in result.new)
        assert result.new == [], f"new lint findings:\n{rendered}"
        assert result.files_scanned > 150


class TestDet004SeedProvenance:
    def test_literal_seed_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            rng = np.random.default_rng(42)
        """)
        assert rule_ids(findings) == ["DET004"]
        assert "a literal" in findings[0].message

    def test_no_arg_draws_os_entropy_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rule_ids(findings) == ["DET004"]
        assert "OS entropy" in findings[0].message

    def test_untainted_local_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            def make():
                fixed = 7
                return np.random.default_rng(fixed)
        """)
        assert rule_ids(findings) == ["DET004"]
        assert "an untainted local" in findings[0].message

    def test_config_field_seed_ok(self):
        findings = lint_snippet("""
            import numpy as np
            def make(config):
                return np.random.default_rng(config.seed)
        """)
        assert findings == []

    def test_spawn_child_ok(self):
        findings = lint_snippet("""
            import numpy as np
            def make(seq):
                child, = seq.spawn(1)
                return np.random.default_rng(child)
        """)
        assert findings == []

    def test_closure_read_of_enclosing_param_ok(self):
        findings = lint_snippet("""
            import numpy as np
            def outer(seed):
                def inner():
                    return np.random.default_rng(seed)
                return inner
        """)
        assert findings == []

    def test_literal_inside_lambda_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            make = lambda: np.random.default_rng(3)
        """)
        assert rule_ids(findings) == ["DET004"]

    def test_from_import_alias_flagged(self):
        findings = lint_snippet("""
            from numpy.random import default_rng as mk
            rng = mk(5)
        """)
        assert rule_ids(findings) == ["DET004"]

    def test_seed_sequence_literal_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            seq = np.random.SeedSequence(1234)
        """)
        assert rule_ids(findings) == ["DET004"]

    def test_clean_reassignment_kills_taint(self):
        # seed is rebound to a literal before use: the param taint dies
        findings = lint_snippet("""
            import numpy as np
            def make(seed):
                seed = 9
                return np.random.default_rng(seed)
        """)
        assert rule_ids(findings) == ["DET004"]

    def test_tests_dir_not_in_scope(self):
        findings = lint_snippet(
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            rel_path="tests/test_something.py",
        )
        assert findings == []


class TestShm001WriteSafety:
    def test_subscript_store_flagged(self):
        findings = lint_snippet("""
            from repro.fleet import shm
            def worker(handle):
                cols = shm.attach(handle)
                cols.health[0] = 2
        """)
        assert rule_ids(findings) == ["SHM001"]
        assert "subscript store" in findings[0].message

    def test_augmented_subscript_store_flagged(self):
        findings = lint_snippet("""
            from repro.fleet import shm
            def worker(handle):
                cols = shm.attach(handle)
                cols.health[0] += 1
        """)
        assert rule_ids(findings) == ["SHM001"]
        assert "augmented" in findings[0].message

    def test_inplace_fill_flagged(self):
        findings = lint_snippet("""
            from repro.fleet import shm
            def worker(handle):
                cols = shm.attach(handle)
                cols.health.fill(0)
        """)
        assert rule_ids(findings) == ["SHM001"]
        assert ".fill()" in findings[0].message

    def test_np_copyto_flagged(self):
        findings = lint_snippet("""
            import numpy as np
            from repro.fleet import shm
            def worker(handle, src):
                cols = shm.attach(handle)
                np.copyto(cols.health, src)
        """)
        assert rule_ids(findings) == ["SHM001"]

    def test_view_alias_carries_taint(self):
        findings = lint_snippet("""
            from repro.fleet import shm
            def worker(handle):
                cols = shm.attach(handle)
                view = cols.health
                view[0] = 1
        """)
        assert rule_ids(findings) == ["SHM001"]

    def test_thaw_kills_taint(self):
        findings = lint_snippet("""
            from repro.fleet import shm
            def worker(handle):
                cols = shm.attach(handle)
                mine = cols.thaw()
                mine.health[0] = 1
        """)
        assert findings == []

    def test_from_import_attach_flagged(self):
        findings = lint_snippet("""
            from repro.fleet.shm import attach
            def worker(handle):
                cols = attach(handle)
                cols.health[0] = 2
        """)
        assert rule_ids(findings) == ["SHM001"]

    def test_unrelated_array_writes_ok(self):
        findings = lint_snippet("""
            import numpy as np
            def work(n):
                arr = np.zeros(n)
                arr[0] = 1
                arr.fill(2)
                arr += 1
        """)
        assert findings == []


class TestArch001LayerDag:
    FLEET = "src/repro/fleet/snippet.py"

    def test_back_edge_flagged(self):
        findings = lint_snippet(
            "from repro.engine import runner\n", rel_path=self.FLEET
        )
        assert rule_ids(findings) == ["ARCH001"]
        assert "higher layer" in findings[0].message

    def test_downward_edge_ok(self):
        findings = lint_snippet(
            "from repro.core import events\n", rel_path=self.FLEET
        )
        assert findings == []

    def test_same_package_ok(self):
        findings = lint_snippet(
            "from repro.fleet import columns\n", rel_path=self.FLEET
        )
        assert findings == []

    def test_function_local_import_is_sanctioned(self):
        findings = lint_snippet("""
            def late():
                from repro.engine import runner
                return runner
        """, rel_path=self.FLEET)
        assert findings == []

    def test_type_checking_import_is_sanctioned(self):
        findings = lint_snippet("""
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.engine import runner
        """, rel_path=self.FLEET)
        assert findings == []

    def test_noqa_documents_a_deliberate_embed(self):
        findings = lint_snippet(
            "from repro.engine import runner"
            "  # repro: noqa-ARCH001 -- test embed\n",
            rel_path=self.FLEET,
        )
        assert findings == []

    def test_unknown_imported_package_flagged(self):
        findings = lint_snippet(
            "from repro.mystery import thing\n", rel_path=self.FLEET
        )
        assert rule_ids(findings) == ["ARCH001"]
        assert "not in the LintConfig.layers" in findings[0].message

    def test_unplaced_own_subpackage_flagged(self):
        findings = lint_snippet(
            "x = 1\n", rel_path="src/repro/newpkg/mod.py"
        )
        assert rule_ids(findings) == ["ARCH001"]
        assert "'newpkg' is not in the LintConfig.layers" \
            in findings[0].message

    def test_loose_top_level_module_sits_on_top(self):
        # entry-point shapes (src/repro/<name>.py) may import anything
        findings = lint_snippet(
            "from repro.engine import runner\n",
            rel_path="src/repro/tool.py",
        )
        assert findings == []


class TestObs003DeadNames:
    def _project(self, tmp_path: Path) -> Path:
        obs = tmp_path / "src" / "repro" / "obs"
        obs.mkdir(parents=True)
        (obs / "names.py").write_text(
            'ATTR_USED = "campaign.ticks"\n'
            'IMPORT_USED = "core.mces"\n'
            'VALUE_USED = "fleet.size"\n'
            'DEAD = "campaign.never"\n'
        )
        (tmp_path / "src" / "repro" / "user.py").write_text(
            "from repro.obs import names\n"
            "from repro.obs.names import IMPORT_USED\n"
            "def report(metrics):\n"
            "    metrics.counter('fleet.size', 1)\n"
            "    return names.ATTR_USED, IMPORT_USED\n"
        )
        return tmp_path

    def test_only_dead_constant_flagged(self, tmp_path):
        root = self._project(tmp_path)
        result = run_lint(["src"], root=root)
        obs3 = [f for f in result.new if f.rule_id == "OBS003"]
        assert len(obs3) == 1
        assert "DEAD" in obs3[0].message
        assert obs3[0].path == "src/repro/obs/names.py"
        assert obs3[0].line == 4

    def test_quiet_without_names_module(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text("x = 1\n")
        result = run_lint(["src"], root=tmp_path)
        assert [f for f in result.new if f.rule_id == "OBS003"] == []


class TestMultiLineNoqa:
    SOURCE = (
        "import time\n"
        "t = time.time(\n"
        ")  # repro: noqa-DET002 -- multi-line call, comment on last line\n"
    )

    def test_noqa_on_last_line_of_node_suppresses(self):
        assert lint_snippet(self.SOURCE) == []

    def test_wrong_rule_id_on_last_line_does_not(self):
        source = self.SOURCE.replace("noqa-DET002", "noqa-DET001")
        assert rule_ids(lint_snippet(source)) == ["DET002"]

    def test_noqa_below_the_node_does_not_leak(self):
        source = (
            "import time\n"
            "t = time.time()\n"
            "x = 1  # repro: noqa-DET002\n"
        )
        assert rule_ids(lint_snippet(source)) == ["DET002"]

    def test_end_line_recorded_on_finding(self):
        (finding,) = lint_snippet(
            "import time\nt = time.time(\n)\n"
        )
        assert finding.line == 2 and finding.last_line == 3


class TestIncrementalCache:
    def _setup(self, tmp_path: Path) -> Path:
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "b.py").write_text(
            "import time\nu = time.time()  # repro: noqa-DET002 -- ui\n"
        )
        return tmp_path / "cache.json"

    def _run(self, tmp_path: Path, cache: Path, **kwargs):
        from repro.lint.stats import LintStats

        stats = LintStats()
        result = run_lint(
            ["a.py", "b.py"], root=tmp_path, cache_path=cache,
            stats=stats, **kwargs
        )
        return result, stats

    def test_warm_run_hits_every_unchanged_file(self, tmp_path):
        cache = self._setup(tmp_path)
        cold, cold_stats = self._run(tmp_path, cache)
        assert cold_stats.files_from_cache == 0
        assert cache.is_file()
        warm, warm_stats = self._run(tmp_path, cache)
        assert warm_stats.files_from_cache == 2
        assert warm.to_json() == cold.to_json()
        assert warm.suppressed == cold.suppressed == 1

    def test_editing_one_file_relints_only_it(self, tmp_path):
        cache = self._setup(tmp_path)
        self._run(tmp_path, cache)
        (tmp_path / "b.py").write_text("x = 1\n")
        warm, stats = self._run(tmp_path, cache)
        # a.py unchanged -> served from cache; only b.py re-linted
        assert stats.files_from_cache == 1
        assert len(warm.new) == 1 and warm.suppressed == 0

    def test_rule_selection_invalidates_wholesale(self, tmp_path):
        cache = self._setup(tmp_path)
        self._run(tmp_path, cache)
        _, stats = self._run(
            tmp_path, cache,
            config=LintConfig(select=frozenset({"DET002"})),
        )
        assert stats.files_from_cache == 0

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        cache = self._setup(tmp_path)
        cold, _ = self._run(tmp_path, cache)
        cache.write_text("{not json")
        warm, stats = self._run(tmp_path, cache)
        assert stats.files_from_cache == 0
        assert warm.to_json() == cold.to_json()

    def test_statistics_identical_cold_and_warm(self, tmp_path):
        cache = self._setup(tmp_path)
        _, cold_stats = self._run(tmp_path, cache)
        _, warm_stats = self._run(tmp_path, cache)
        assert warm_stats.rule_findings == cold_stats.rule_findings
        assert warm_stats.rule_suppressions == cold_stats.rule_suppressions
        payload = warm_stats.to_json()
        assert payload["version"] == 1
        assert set(payload) == {"version", "files", "rules", "phases"}


class TestParallelWorkers:
    def test_worker_count_never_changes_the_report(self, tmp_path):
        for index in range(4):
            (tmp_path / f"mod{index}.py").write_text(
                "import time\n"
                f"t{index} = time.time()\n"
                "x = {1, 2}\n"
                "for item in {3, 4}:\n"
                "    pass\n"
            )
        paths = [f"mod{index}.py" for index in range(4)]
        serial = run_lint(paths, root=tmp_path, workers=1)
        pooled = run_lint(paths, root=tmp_path, workers=2)
        assert serial.to_json() == pooled.to_json()
        assert len(serial.new) > 0


#: the structural subset of the SARIF 2.1.0 schema this repo relies on
#: (vendored: CI has no network; the full spec schema is ~250 KB)
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": [
                                                "id", "shortDescription",
                                            ],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "ruleId", "level", "message", "locations",
                            ],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarifExport:
    def _result(self, tmp_path: Path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "old.py").write_text("import time\nu = time.time()\n")
        first = run_lint(["old.py"], root=tmp_path)
        baseline = baseline_mod.count_fingerprints(first.new)
        return run_lint(
            ["bad.py", "old.py"], root=tmp_path, baseline=baseline
        )

    def test_payload_validates_against_subset_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.lint.sarif import to_sarif

        payload = to_sarif(self._result(tmp_path))
        jsonschema.validate(payload, SARIF_SUBSET_SCHEMA)

    def test_shape_conventions(self, tmp_path):
        from repro.lint.sarif import FINGERPRINT_KEY, to_sarif

        payload = to_sarif(self._result(tmp_path))
        (run,) = payload["runs"]
        rule_ids_listed = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(RULES) <= rule_ids_listed
        assert "LINT000" in rule_ids_listed
        assert run["columnKind"] == "utf16CodeUnits"
        assert "ROOT" in run["originalUriBaseIds"]
        new_row, old_row = run["results"]
        assert new_row["ruleId"] == "DET002"
        assert "suppressions" not in new_row
        assert old_row["suppressions"] == [{"kind": "external"}]
        region = new_row["locations"][0]["physicalLocation"]["region"]
        # repro.lint columns are 0-based; SARIF regions are 1-based
        assert region["startColumn"] >= 1
        assert region["startLine"] == 2
        fingerprint = new_row["partialFingerprints"][FINGERPRINT_KEY]
        assert fingerprint.startswith("bad.py::DET002::")
        rules_list = run["tool"]["driver"]["rules"]
        assert rules_list[new_row["ruleIndex"]]["id"] == "DET002"

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        out = tmp_path / "out.sarif"
        status = repro_main(
            ["lint", "bad.py", "--root", str(tmp_path), "--no-baseline",
             "--sarif", str(out)]
        )
        assert status == 1
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"][0]["ruleId"] == "DET002"


class TestPruneBaselineAndStatistics:
    def _grandfather(self, tmp_path: Path, capsys) -> None:
        (tmp_path / "mod.py").write_text(
            "import time\na = time.time()\nb = time.time()\n"
        )
        assert repro_main(
            ["lint", "mod.py", "--root", str(tmp_path), "--write-baseline"]
        ) == 0
        capsys.readouterr()

    def test_stale_note_then_prune_tightens(self, tmp_path, capsys):
        self._grandfather(tmp_path, capsys)
        # fix one of the two grandfathered findings -> 1 stale entry
        (tmp_path / "mod.py").write_text("import time\na = time.time()\n")
        assert repro_main(
            ["lint", "mod.py", "--root", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "no longer match" in err and "--prune-baseline" in err
        assert repro_main(
            ["lint", "mod.py", "--root", str(tmp_path), "--prune-baseline"]
        ) == 0
        err = capsys.readouterr().err
        assert "pruned" in err and "1 stale" in err
        payload = json.loads(
            (tmp_path / "lint-baseline.json").read_text()
        )
        assert sum(payload["findings"].values()) == 1
        assert repro_main(
            ["lint", "mod.py", "--root", str(tmp_path)]
        ) == 0
        assert "no longer match" not in capsys.readouterr().err

    def test_prune_without_baseline_is_usage_error(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert repro_main(
            ["lint", "mod.py", "--root", str(tmp_path),
             "--prune-baseline", "--no-baseline"]
        ) == 2

    def test_statistics_table_on_stderr(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import time\nt = time.time()\n")
        repro_main(
            ["lint", "mod.py", "--root", str(tmp_path), "--no-baseline",
             "--statistics"]
        )
        err = capsys.readouterr().err
        assert "lint statistics:" in err
        assert "DET002" in err
        assert "per phase (seconds):" in err

    def test_statistics_json_artifact(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import time\nt = time.time()\n")
        out = tmp_path / "LINT_STATS.json"
        repro_main(
            ["lint", "mod.py", "--root", str(tmp_path), "--no-baseline",
             "--statistics-json", str(out)]
        )
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        assert payload["files"]["scanned"] == 1
        assert payload["rules"]["DET002"]["findings"] == 1
        assert set(payload["phases"]) >= {"discover", "files", "read"}

    def test_no_cache_flag_skips_cache_file(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        repro_main(
            ["lint", "mod.py", "--root", str(tmp_path), "--no-cache"]
        )
        assert not (tmp_path / ".repro-lint-cache.json").exists()
        repro_main(["lint", "mod.py", "--root", str(tmp_path)])
        assert (tmp_path / ".repro-lint-cache.json").exists()
