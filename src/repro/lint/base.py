"""Rule framework: contexts, base classes, and the rule registry.

Two rule shapes exist:

- :class:`FileRule` — sees one parsed file at a time through a
  :class:`FileContext`; most rules (RNG discipline, wall-clock use,
  mutable defaults) are local properties of a single AST.
- :class:`ProjectRule` — runs once per lint invocation against the
  :class:`ProjectContext`; cross-file contracts (every ``EventKind``
  weighted, every emitted metric name declared) live here.

Rules self-register via :func:`register`; the registry is the landing
zone for future project-specific checks — adding a rule is writing one
class, and ``repro lint --list-rules`` / ``tests/test_lint.py`` /
``scripts/check_docs.py`` pick it up automatically.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, TYPE_CHECKING

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.engine import LintConfig


@dataclasses.dataclass(slots=True)
class FileContext:
    """Everything a :class:`FileRule` may look at for one file.

    ``nodes`` is ``tuple(ast.walk(tree))``, built once: rules iterate it
    instead of re-walking the tree, so a file costs one walk however
    many rules look at it.
    """

    path: Path
    rel_path: str            # posix, relative to the scan root
    tree: ast.Module
    source: str
    config: "LintConfig"
    project: "ProjectContext"
    nodes: tuple[ast.AST, ...] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.nodes = self.project.remember(self.rel_path, self.tree)

    def in_src(self) -> bool:
        """Is this file part of the shipped package (``src/`` tree)?"""
        return self.rel_path.startswith("src/")


class ProjectContext:
    """Cross-file state shared by one lint invocation.

    Holds every tree the file pass parsed, so project rules read them
    without parsing again; files the pass did not cover parse lazily.
    Project rules ask for well-known files (``repro.core.events``,
    ``repro.obs.names``, ...) by the paths in :class:`LintConfig`,
    which keeps the rules testable against fixture trees.
    """

    def __init__(self, root: Path, config: "LintConfig") -> None:
        self.root = root
        self.config = config
        self._trees: dict[str, ast.Module | None] = {}
        self._nodes: dict[str, tuple[ast.AST, ...]] = {}

    def remember(
        self, rel_path: str, tree: ast.Module
    ) -> tuple[ast.AST, ...]:
        """Cache an already-parsed tree; returns its walked nodes."""
        if self._trees.get(rel_path) is not tree:
            self._trees[rel_path] = tree
            self._nodes[rel_path] = tuple(ast.walk(tree))
        return self._nodes[rel_path]

    def parsed(self, rel_path: str) -> ast.Module | None:
        """``rel_path``'s tree if this run already parsed it, else None."""
        return self._trees.get(rel_path)

    def parse(self, rel_path: str) -> ast.Module | None:
        """Parsed AST for ``rel_path`` under the root, or None."""
        if rel_path not in self._trees:
            path = self.root / rel_path
            try:
                self.remember(
                    rel_path, ast.parse(path.read_text(), filename=str(path))
                )
            except (OSError, SyntaxError):
                self._trees[rel_path] = None
        return self._trees[rel_path]

    def nodes(self, rel_path: str) -> tuple[ast.AST, ...]:
        """Every node of ``rel_path``'s tree, walked once (empty if None)."""
        if self.parse(rel_path) is None:
            return ()
        return self._nodes[rel_path]

    def declared_obs_names(self) -> frozenset[str] | None:
        """Metric/span names declared as constants in the names module.

        Returns None when the names module is absent (fixture trees),
        in which case SAFE002 has nothing to check against and stays
        quiet rather than flagging every emission.
        """
        tree = self.parse(self.config.obs_names_path)
        if tree is None:
            return None
        return frozenset(value for _, value, _ in declared_constants(tree))


class Rule:
    """Base for all rules; subclasses define the class attributes.

    Attributes:
        rule_id: stable identifier (``FAMILY###``), used by noqa
            comments, ``--select``, and the docs gate.
        title: one-line summary for ``--list-rules`` and docs.
        severity: default severity of this rule's findings.
        hint: actionable fix guidance attached to every finding.
        src_only: restrict to files under ``src/`` (contracts about the
            shipped package, not about test scaffolding).
    """

    rule_id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    hint: str = ""
    src_only: bool = False

    def make(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Finding at ``node``'s location in ``ctx``'s file."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.rule_id,
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint,
            severity=self.severity,
            end_line=getattr(node, "end_lineno", None) or line,
        )


class FileRule(Rule):
    """A rule evaluated independently per file."""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once per invocation, across files."""

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        raise NotImplementedError


#: rule_id -> rule class; populated by :func:`register` at import time
RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be new)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    RULES[cls.rule_id] = cls
    return cls


def all_rules(select: frozenset[str] | None = None) -> Iterator[Rule]:
    """Instantiate registered rules in id order, optionally filtered."""
    for rule_id in sorted(RULES):
        if select is None or rule_id in select:
            yield RULES[rule_id]()


def declared_constants(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(name, string value, line) of each module-level UPPER_CASE str
    constant — the shape of the obs names module (SAFE002/OBS003)."""
    declared: list[tuple[str, str, int]] = []
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                declared.append((target.id, node.value.value, node.lineno))
    return declared


def dotted_source(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None (shared helper)."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


__all__ = [
    "FileContext",
    "FileRule",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "all_rules",
    "declared_constants",
    "dotted_source",
    "register",
]
