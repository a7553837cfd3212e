"""Lint engine: discovery, suppression, and the run loop.

One :func:`run_lint` call walks the requested paths, parses each
``*.py`` once, runs every registered file rule on each tree and every
project rule once, applies ``# repro: noqa-RULE`` suppressions, and
returns a :class:`LintResult` the CLI renders as text or JSON.

Every run is cold and single-process, so there is no result cache or
worker pool to keep correct.  Each file is parsed and walked once
(:attr:`FileContext.nodes`); project rules read the trees the file
pass already parsed; the dataflow rules run their walker only on files
holding a call their policy can act on.

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
is safe.  It is the one suppression mechanism: there is no baseline.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Iterable

from repro.lint.base import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    all_rules,
)
from repro.lint.findings import Finding, Severity, sort_findings

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
    """Everything one invocation produced."""

    #: unsuppressed findings, in report order; any one fails the gate
    new: list[Finding]
    suppressed: int
    files_scanned: int

    @property
    def exit_status(self) -> int:
        return 1 if self.new else 0

    def to_json(self) -> dict[str, object]:
        """The ``repro lint --json`` payload (schema pinned by tests)."""
        return {
            "version": 3,
            "files_scanned": self.files_scanned,
            "new_count": len(self.new),
            "suppressed_count": self.suppressed,
            "findings": [finding.to_json() for finding in self.new],
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
    """Expand files/directories into a sorted list of ``*.py`` files.

    Relative paths resolve under ``root``.  Raises FileNotFoundError
    naming every path that yields no ``*.py`` file: a gate that scanned
    nothing must not pass.
    """
    files: set[Path] = set()
    empty: list[str] = []
    for path in paths:
        resolved = path if path.is_absolute() else root / path
        found: set[Path] = set()
        if resolved.is_file() and resolved.suffix == ".py":
            found.add(resolved)
        elif resolved.is_dir():
            found.update(
                candidate for candidate in resolved.rglob("*.py")
                if not _SKIP_DIRS.intersection(candidate.parts)
            )
        if not found:
            empty.append(str(path))
        files |= found
    if empty:
        raise FileNotFoundError(
            f"no *.py file at {', '.join(empty)} (under {root})"
        )
    return sorted(files)


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _lint_one_file(
    path: Path, rel: str, source: str,
    project: ProjectContext, file_rules: list[FileRule],
) -> tuple[list[Finding], list[Finding]]:
    """(kept, noqa-suppressed) file-rule findings for one source file."""
    try:
        # a project file may already be parsed (SAFE002 reads the obs
        # names module while linting the files sorted before it)
        tree = project.parsed(rel) or ast.parse(source, filename=str(path))
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
        config=project.config, project=project,
    )
    findings: list[Finding] = []
    for rule in file_rules:
        if rule.src_only and not ctx.in_src():
            continue
        findings.extend(rule.check_file(ctx))
    return _apply_suppressions(findings, source)


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
) -> LintResult:
    """Lint ``paths`` (files or directories) relative to ``root``.

    Raises FileNotFoundError (from :func:`discover`) when a path holds
    no ``*.py`` file.
    """
    root = Path(root)
    config = config or LintConfig()
    project = ProjectContext(root, config)
    rules = list(all_rules(config.select))
    file_rules = [r for r in rules if isinstance(r, FileRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    files = discover([Path(p) for p in paths], root)
    findings: list[Finding] = []
    suppressed = 0
    sources: dict[str, str] = {}
    for path in files:
        rel = _rel_path(path, root)
        sources[rel] = path.read_text()
        kept, dropped = _lint_one_file(
            path, rel, sources[rel], project, file_rules
        )
        findings.extend(kept)
        suppressed += len(dropped)

    project_findings = [
        finding
        for rule in project_rules
        for finding in rule.check_project(project)
    ]
    kept, dropped = _suppress_project_findings(
        project_findings, sources, root
    )
    findings.extend(kept)
    suppressed += len(dropped)
    return LintResult(
        new=sort_findings(findings), suppressed=suppressed,
        files_scanned=len(files),
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
        Path(rel_path), rel_path, source, project, file_rules
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
