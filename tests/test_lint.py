"""Tests for the ``repro.lint`` invariant linter.

Covers:

- positive *and* negative fixture snippets for every rule id;
- ``# repro: noqa-RULE`` suppression semantics;
- the ``--json`` output schema and CLI usage errors;
- the dataflow pre-filter (DET004/SHM001) against an unconditional walk;
- the meta-gate: ``repro lint src tests benchmarks scripts`` is clean
  (the same check CI runs).
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    FileContext,
    Finding,
    LintConfig,
    ProjectContext,
    RULES,
    Severity,
    lint_source,
    run_lint,
)
from repro.lint.dataflow import Dataflow
from repro.lint.engine import PARSE_RULE_ID
from repro.lint.rules_flow import (
    SeedProvenanceRule,
    ShmWriteSafetyRule,
    _SeedPolicy,
    _ShmPolicy,
)

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


class TestCliAndJson:
    def _write_bad(self, tmp_path: Path) -> Path:
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        return bad

    def test_gate_fails_on_seeded_violation(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        status = repro_main(
            ["lint", str(bad), "--root", str(tmp_path)]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "hint:" in out

    def test_json_schema(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        status = repro_main(
            ["lint", "bad.py", "--root", str(tmp_path), "--json"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version", "files_scanned", "new_count", "suppressed_count",
            "findings",
        }
        assert payload["version"] == 3
        assert payload["files_scanned"] == 1
        assert payload["new_count"] == 1
        assert payload["suppressed_count"] == 0
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "end_line", "col",
            "message", "hint",
        }
        assert finding["rule"] == "DET002"
        assert finding["path"] == "bad.py"
        assert finding["line"] == 2
        assert finding["end_line"] == 2

    def test_unknown_path_is_usage_error(self, tmp_path):
        assert repro_main(
            ["lint", "nope.py", "--root", str(tmp_path)]
        ) == 2

    def test_path_resolves_under_root_not_cwd(
        self, tmp_path, capsys, monkeypatch
    ):
        # the path exists relative to the cwd but not under --root:
        # scanning nothing must be an error, not a green gate
        monkeypatch.chdir(REPO)
        assert (REPO / "src/repro/cli.py").is_file()
        assert repro_main(
            ["lint", "--root", str(tmp_path), "src/repro/cli.py"]
        ) == 2
        assert "src/repro/cli.py" in capsys.readouterr().err

    def test_path_without_python_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("# not python\n")
        assert repro_main(
            ["lint", "--root", str(tmp_path), "README.md"]
        ) == 2
        assert "README.md" in capsys.readouterr().err

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

    def test_repo_is_clean(self):
        result = run_lint(
            ["src", "tests", "benchmarks", "scripts"], root=REPO,
        )
        rendered = "\n".join(f.render() for f in result.new)
        assert result.new == [], f"new lint findings:\n{rendered}"
        assert result.files_scanned > 150
        # every accepted site is a noqa comment; the count moves only
        # with a reviewed edit (ARCH001 3, DET002 2, DET004 4, PERF002 1)
        assert result.suppressed == 10


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


def _dataflow_fixtures() -> list[str]:
    """Every snippet the DET004/SHM001 test classes above lint."""
    tree = ast.parse(Path(__file__).read_text())
    sources: list[str] = []
    for cls in tree.body:
        if not (
            isinstance(cls, ast.ClassDef)
            and cls.name.startswith(("TestDet004", "TestShm001"))
        ):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "lint_snippet"
                and isinstance(node.args[0], ast.Constant)
            ):
                sources.append(textwrap.dedent(node.args[0].value))
    return sources


class TestDataflowPrefilter:
    """DET004/SHM001 skip the dataflow walk on a file with no call their
    policy acts on; the skip must never change a rule's findings."""

    PAIRS = (
        (SeedProvenanceRule, _SeedPolicy),
        (ShmWriteSafetyRule, _ShmPolicy),
    )

    def _findings(self, source: str, rel_path: str) -> list[Finding]:
        """Both rules' findings, each checked against an unconditional
        walk of the same policy."""
        config = LintConfig()
        findings: list[Finding] = []
        for rule_cls, policy_cls in self.PAIRS:
            rule = rule_cls()
            ctx = FileContext(
                path=Path(rel_path), rel_path=rel_path,
                tree=ast.parse(source), source=source, config=config,
                project=ProjectContext(REPO, config),
            )
            policy = policy_cls(rule, ctx)
            Dataflow(policy).run(ctx.tree)
            fast = list(rule.check_file(ctx))
            assert fast == policy.findings, (rule.rule_id, rel_path)
            findings.extend(fast)
        return findings

    def test_every_src_file(self):
        files = sorted((REPO / "src" / "repro").rglob("*.py"))
        assert len(files) > 100
        findings = [
            finding
            for path in files
            for finding in self._findings(
                path.read_text(), path.relative_to(REPO).as_posix()
            )
        ]
        # not vacuous: the noqa'd DET004 sites are real findings here
        assert {f.rule_id for f in findings} == {"DET004"}

    @pytest.mark.parametrize("source", [
        pytest.param(source, id=f"fixture{index}")
        for index, source in enumerate(_dataflow_fixtures())
    ])
    def test_every_rule_fixture(self, source):
        self._findings(source, "src/repro/snippet.py")

    def test_fixtures_were_found(self):
        assert len(_dataflow_fixtures()) >= 15
