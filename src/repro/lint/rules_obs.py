"""Observability hygiene (OBS003): no dead names in the registry.

The reverse of SAFE002: SAFE002 stops an *emission* whose name was
never declared, OBS003 stops a *declaration* that nothing emits.  A
dead constant in :mod:`repro.obs.names` is a silent lie — dashboards,
OBSERVABILITY.md, and alert templates all treat the registry as "what
the system can emit", so an entry that survived a refactor keeps
operators hunting for a signal that can no longer fire (the same
stale-runbook hazard §6 pins on undocumented detection surfaces).

A constant counts as *emitted* when some ``src/repro/**/*.py`` module
(other than the names module itself) either passes its string value as the name argument of an
``obs.metrics`` / ``obs.tracer`` emission call, or references the
constant by name (``names.FOO`` or a ``from repro.obs.names import
FOO`` use).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import (
    ProjectContext,
    ProjectRule,
    declared_constants,
    dotted_source,
    register,
)
from repro.lint.findings import Finding
from repro.lint.rules_safe import _is_metrics_base, _is_tracer_base

#: emission attribute names on the metrics registry singleton
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


def _used_in_module(
    nodes: tuple[ast.AST, ...],
    constant_names: frozenset[str],
    values: frozenset[str],
) -> tuple[set[str], set[str]]:
    """(constants referenced, values emitted) by one module."""
    imported: set[str] = set()          # local alias -> counts as use
    alias_to_const: dict[str, str] = {}
    for node in nodes:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == "repro.obs.names"
        ):
            for alias in node.names:
                if alias.name in constant_names:
                    alias_to_const[alias.asname or alias.name] = alias.name

    used_consts: set[str] = set()
    used_values: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and node.attr in constant_names:
            base = dotted_source(node.value)
            if base is not None and base.rpartition(".")[2] == "names":
                used_consts.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in alias_to_const:
            imported.add(alias_to_const[node.id])
        elif isinstance(node, ast.Call):
            value = _emitted_literal(node)
            if value is not None and value in values:
                used_values.add(value)
    return used_consts | imported, used_values


def _emitted_literal(node: ast.Call) -> str | None:
    """The literal name argument of an emission call, if any."""
    if not isinstance(node.func, ast.Attribute) or not node.args:
        return None
    base = dotted_source(node.func.value)
    if base is None:
        return None
    attr = node.func.attr
    is_metric = attr in _METRIC_METHODS and _is_metrics_base(base)
    is_span = attr == "span" and _is_tracer_base(base)
    if not (is_metric or is_span):
        return None
    name_arg = node.args[0]
    if isinstance(name_arg, ast.Constant) and isinstance(
        name_arg.value, str
    ):
        return name_arg.value
    return None


@register
class DeadObsNameRule(ProjectRule):
    """OBS003: every declared obs name is emitted by some module."""

    rule_id = "OBS003"
    title = "every name declared in repro.obs.names is emitted"
    hint = (
        "emit the metric/span somewhere under src/repro, or delete "
        "the constant (and its OBSERVABILITY.md row) — the registry "
        "documents what the system *can* emit, not what it once did"
    )
    src_only = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        names_tree = project.parse(project.config.obs_names_path)
        if names_tree is None:
            return
        declared = declared_constants(names_tree)
        if not declared:
            return
        constant_names = frozenset(name for name, _, _ in declared)
        values = frozenset(value for _, value, _ in declared)

        used_consts: set[str] = set()
        used_values: set[str] = set()
        package = project.root / "src" / "repro"
        for path in sorted(package.rglob("*.py")):
            rel = path.relative_to(project.root).as_posix()
            if rel == project.config.obs_names_path:
                continue
            consts, vals = _used_in_module(
                project.nodes(rel), constant_names, values
            )
            used_consts |= consts
            used_values |= vals

        for name, value, line in declared:
            if name in used_consts or value in used_values:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=project.config.obs_names_path,
                line=line, col=0,
                message=(
                    f"declared name {name} ({value!r}) is never emitted "
                    "or referenced by any src/repro module"
                ),
                hint=self.hint, severity=self.severity,
                end_line=line,
            )


__all__ = ["DeadObsNameRule"]
