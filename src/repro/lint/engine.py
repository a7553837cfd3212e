"""Lint engine: discovery, suppression, baselines, cache, and the run loop.

One :func:`run_lint` call walks the requested paths, parses each
``*.py`` once, runs every registered file rule on each tree and every
project rule once, applies ``# repro: noqa-RULE`` suppressions and the
baseline, and returns a :class:`LintResult` the CLI renders as text,
JSON, or SARIF.

Three engine features keep the gate fast and honest at repo scale:

- **Incremental cache** (:mod:`repro.lint.cache`): per-file findings
  are reused when the file's content hash and the whole rule pack's
  inputs fingerprint both match; a warm run re-lints only edited
  files.
- **Parallel fan-out**: file linting is a pure per-file map, so it
  rides :func:`repro.engine.runner.run_tasks` — the same chunked pool
  the simulations use — with results merged in deterministic file
  order (``workers`` never changes the report).
- **Statistics** (:mod:`repro.lint.stats`): per-rule finding and
  suppression counts plus per-phase wall time, for ``--statistics``.

Suppression syntax::

    started = time.time()   # repro: noqa-DET002 -- operator-facing UX
    x = tricky()            # repro: noqa               (all rules)
    y = both()              # repro: noqa-DET001,API001

A noqa comment matches a finding when it sits on *any* line of the
reported node (``lineno..end_lineno``) — a multi-line call can carry
the comment on whichever physical line fits.  The flip side: a
suppression inside a large node (a class body, for PERF001) suppresses
that rule for the whole node, so keep noqa comments on the offending
statement itself.  Everything after ``--`` in the comment is the
tracking note; CONTRIBUTING.md asks for one sentence on why the site
is safe.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import Iterable

from repro.engine.runner import run_tasks
from repro.lint import baseline as baseline_mod
from repro.lint import cache as cache_mod
from repro.lint.base import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    all_rules,
)
from repro.lint.findings import Finding, Severity, sort_findings
from repro.lint.stats import LintStats

#: rule id for files the parser itself rejects
PARSE_RULE_ID = "LINT000"

#: suppression comments: ``# repro: noqa`` / ``# repro: noqa-DET001,API001``
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)

#: directories never descended into during discovery
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Tunable contract tables (defaults encode this repo's layout).

    Attributes:
        select: restrict to these rule ids (None = all registered).
        wallclock_allowed: rel-path files (or ``dir/`` prefixes) where
            DET002 permits host-clock reads — the benchmarking layer.
        slots_modules: rel-path files whose dataclasses PERF001
            requires to declare ``__slots__`` (the hot-path table).
        percore_loop_modules: rel-path files where PERF002 forbids
            per-core Python loops over ``.cores`` (the columnar
            substrate and its fleet-scale consumers).
        layers: the package layer DAG for ARCH001, bottom-up: each
            inner tuple is one layer of ``repro.*`` top-level
            packages, and module-level imports may only point at the
            same or an earlier (lower) layer.
        events_path: module defining :class:`EventKind` (SAFE001).
        weights_path: module defining ``SUSPICION_WEIGHTS`` (SAFE001).
        obs_names_path: module declaring metric/span names
            (SAFE002/OBS003).
    """

    select: frozenset[str] | None = None
    wallclock_allowed: tuple[str, ...] = ("benchmarks/",)
    slots_modules: tuple[str, ...] = (
        "src/repro/campaign.py",
        "src/repro/core/events.py",
        "src/repro/detection/fleetscreen.py",
        "src/repro/engine/runner.py",
        "src/repro/fleet/machine.py",
        "src/repro/mitigation/instrcheck/campaign.py",
        "src/repro/mitigation/instrcheck/policies.py",
        "src/repro/serving/service.py",
        "src/repro/silicon/defects.py",
        "src/repro/silicon/isa.py",
        "src/repro/silicon/vm.py",
        "src/repro/storage/wal.py",
        "src/repro/workloads/base.py",
    )
    percore_loop_modules: tuple[str, ...] = (
        "src/repro/detection/fleetscreen.py",
        "src/repro/engine/runner.py",
        "src/repro/fleet/columns.py",
        "src/repro/fleet/population.py",
        "src/repro/fleet/scheduler.py",
        "src/repro/fleet/shm.py",
        "src/repro/fleet/simulator.py",
    )
    layers: tuple[tuple[str, ...], ...] = (
        ("core", "obs"),
        ("silicon", "fleet"),
        ("workloads",),
        ("campaign", "chaos", "detection", "mitigation", "serving",
         "storage"),
        ("engine",),
        ("analysis",),
        ("cli", "lint", "__main__"),
    )
    events_path: str = "src/repro/core/events.py"
    weights_path: str = "src/repro/detection/weights.py"
    obs_names_path: str = "src/repro/obs/names.py"


@dataclasses.dataclass
class LintResult:
    """Everything one invocation produced, pre-baseline-split."""

    new: list[Finding]
    grandfathered: list[Finding]
    suppressed: int
    files_scanned: int
    baseline_used: bool
    #: baseline entries (by count) no current finding matched; a
    #: nonzero value means the ratchet can tighten (--prune-baseline)
    stale_baseline: int = 0
    stats: LintStats | None = None

    @property
    def all_findings(self) -> list[Finding]:
        return sort_findings(self.new + self.grandfathered)

    @property
    def exit_status(self) -> int:
        return 1 if self.new else 0

    def to_json(self) -> dict[str, object]:
        """The ``repro lint --json`` payload (schema pinned by tests)."""
        def rows(findings: list[Finding], baselined: bool) -> list[dict]:
            return [
                dict(finding.to_json(), baselined=baselined)
                for finding in findings
            ]

        return {
            "version": 2,
            "files_scanned": self.files_scanned,
            "baseline_used": self.baseline_used,
            "new_count": len(self.new),
            "baselined_count": len(self.grandfathered),
            "suppressed_count": self.suppressed,
            "stale_baseline_count": self.stale_baseline,
            "findings": rows(sort_findings(self.new), False)
            + rows(sort_findings(self.grandfathered), True),
        }


def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed rule ids (None = all) from noqa comments."""
    table: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = frozenset(
                rule.strip() for rule in rules.split(",")
            )
    return table


def _is_suppressed(
    finding: Finding, table: dict[int, frozenset[str] | None]
) -> bool:
    """Does any noqa line inside the finding's node range cover it?"""
    for lineno in range(finding.line, finding.last_line + 1):
        if lineno not in table:
            continue
        rules = table[lineno]
        if rules is None or finding.rule_id in rules:
            return True
    return False


def _apply_suppressions(
    findings: Iterable[Finding], source: str
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, noqa-suppressed) for one source."""
    table = _suppressions(source)
    if not table:
        return list(findings), []
    kept: list[Finding] = []
    dropped: list[Finding] = []
    for finding in findings:
        if _is_suppressed(finding, table):
            dropped.append(finding)
        else:
            kept.append(finding)
    return kept, dropped


def discover(paths: Iterable[Path], root: Path) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: set[Path] = set()
    for path in paths:
        resolved = path if path.is_absolute() else root / path
        if resolved.is_file() and resolved.suffix == ".py":
            files.add(resolved)
        elif resolved.is_dir():
            for candidate in resolved.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
    return sorted(files)


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _lint_one_file(
    path: Path, rel: str, source: str, config: LintConfig,
    project: ProjectContext, file_rules: list[FileRule],
) -> tuple[list[Finding], list[Finding]]:
    """(kept, noqa-suppressed) file-rule findings for one source file."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        finding = Finding(
            rule_id=PARSE_RULE_ID, path=rel,
            line=exc.lineno or 1, col=exc.offset or 0,
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; no other rules ran on this file",
            severity=Severity.ERROR,
        )
        return [finding], []
    ctx = FileContext(
        path=path, rel_path=rel, tree=tree, source=source,
        config=config, project=project,
    )
    findings: list[Finding] = []
    for rule in file_rules:
        if rule.src_only and not ctx.in_src():
            continue
        findings.extend(rule.check_file(ctx))
    return _apply_suppressions(findings, source)


#: per-worker-process state for the parallel fan-out, keyed by
#: (root, config repr); pool workers are long-lived within one run
_TASK_STATE: dict[tuple[str, str], tuple[ProjectContext, list[FileRule]]] = {}


def _task_state(
    root: str, config: LintConfig
) -> tuple[ProjectContext, list[FileRule]]:
    key = (root, repr(config))
    state = _TASK_STATE.get(key)
    if state is None:
        project = ProjectContext(Path(root), config)
        file_rules = [
            r for r in all_rules(config.select) if isinstance(r, FileRule)
        ]
        state = (project, file_rules)
        _TASK_STATE[key] = state
    return state


def _lint_file_task(
    item: tuple[str, str, str], root: str, config: LintConfig
) -> tuple[str, list[Finding], list[str]]:
    """Pool task: lint one (path, rel, source); picklable round trip."""
    path_str, rel, source = item
    project, file_rules = _task_state(root, config)
    kept, dropped = _lint_one_file(
        Path(path_str), rel, source, config, project, file_rules
    )
    return rel, kept, [finding.rule_id for finding in dropped]


def _suppress_project_findings(
    findings: list[Finding],
    sources: dict[str, str],
    root: Path,
) -> tuple[list[Finding], list[Finding]]:
    """Apply noqa comments to project-rule findings, per target file."""
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    kept: list[Finding] = []
    dropped: list[Finding] = []
    for rel, group in by_path.items():
        source = sources.get(rel)
        if source is None:
            try:
                source = (root / rel).read_text()
            except OSError:
                kept.extend(group)
                continue
        group_kept, group_dropped = _apply_suppressions(group, source)
        kept.extend(group_kept)
        dropped.extend(group_dropped)
    return kept, dropped


def run_lint(
    paths: Iterable[str | Path],
    root: str | Path = ".",
    config: LintConfig | None = None,
    baseline: dict[str, int] | None = None,
    *,
    workers: int | None = 1,
    cache_path: str | Path | None = None,
    stats: LintStats | None = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) relative to ``root``.

    ``workers`` fans the per-file pass over a process pool (1 =
    inline); the report is identical for any worker count.
    ``cache_path`` enables the incremental cache at that location
    (None = cold run, nothing persisted).  ``stats`` receives per-rule
    and per-phase accounting; one is created (and attached to the
    result) when not supplied.
    """
    root = Path(root)
    config = config or LintConfig()
    stats = stats if stats is not None else LintStats()
    project = ProjectContext(root, config)
    rules = list(all_rules(config.select))
    file_rules = [r for r in rules if isinstance(r, FileRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    with stats.phase("discover"):
        files = discover([Path(p) for p in paths], root)

    cache: cache_mod.LintCache | None = None
    if cache_path is not None:
        with stats.phase("cache"):
            fingerprint = cache_mod.inputs_fingerprint(root, config)
            cache = cache_mod.LintCache.load(Path(cache_path), fingerprint)

    # Read every source once; serve cache hits; queue the misses.
    per_file: dict[str, tuple[list[Finding], list[str]]] = {}
    sources: dict[str, str] = {}
    pending: list[tuple[str, str, str]] = []
    with stats.phase("read"):
        for path in files:
            rel = _rel_path(path, root)
            source = path.read_text()
            sources[rel] = source
            if cache is not None:
                digest = cache_mod.source_digest(source)
                entry = cache.get(rel, digest)
                if entry is not None:
                    per_file[rel] = (entry.findings, entry.suppressed)
                    continue
            pending.append((str(path), rel, source))

    with stats.phase("files"):
        if pending:
            task = functools.partial(
                _lint_file_task, root=str(root), config=config
            )
            for rel, kept, dropped_ids in run_tasks(
                task, pending, workers=workers
            ):
                per_file[rel] = (kept, dropped_ids)
                if cache is not None:
                    cache.put(
                        rel, cache_mod.source_digest(sources[rel]),
                        kept, dropped_ids,
                    )

    findings: list[Finding] = []
    suppressed = 0
    for path in files:               # deterministic file-order merge
        rel = _rel_path(path, root)
        kept, dropped_ids = per_file[rel]
        findings.extend(kept)
        suppressed += len(dropped_ids)
        stats.count_suppressions(dropped_ids)

    with stats.phase("project"):
        project_findings: list[Finding] = []
        for rule in project_rules:
            project_findings.extend(rule.check_project(project))
        kept, dropped = _suppress_project_findings(
            project_findings, sources, root
        )
        findings.extend(kept)
        suppressed += len(dropped)
        stats.count_suppressions(f.rule_id for f in dropped)

    findings = sort_findings(findings)
    stats.count_findings(findings)
    stats.files_scanned = len(files)
    stats.files_from_cache = cache.hits if cache is not None else 0

    with stats.phase("baseline"):
        stale = 0
        if baseline is not None:
            new, grandfathered = baseline_mod.split_new(findings, baseline)
            stale = sum(baseline.values()) - len(grandfathered)
        else:
            new, grandfathered = findings, []

    if cache is not None:
        with stats.phase("cache"):
            cache.save(Path(cache_path))  # type: ignore[arg-type]

    return LintResult(
        new=new, grandfathered=grandfathered, suppressed=suppressed,
        files_scanned=len(files), baseline_used=baseline is not None,
        stale_baseline=stale, stats=stats,
    )


def lint_source(
    source: str,
    rel_path: str = "src/repro/snippet.py",
    config: LintConfig | None = None,
    root: str | Path = ".",
) -> list[Finding]:
    """Lint one in-memory snippet (the unit-test entry point).

    ``rel_path`` controls scoping (``src/``-only rules, DET002
    allowlists, the PERF001 module table) exactly as a real file path
    would; project rules do not run here.
    """
    config = config or LintConfig()
    project = ProjectContext(Path(root), config)
    file_rules = [
        r for r in all_rules(config.select) if isinstance(r, FileRule)
    ]
    kept, _ = _lint_one_file(
        Path(rel_path), rel_path, source, config, project, file_rules
    )
    return sort_findings(kept)


__all__ = [
    "LintConfig",
    "LintResult",
    "PARSE_RULE_ID",
    "discover",
    "lint_source",
    "run_lint",
]
