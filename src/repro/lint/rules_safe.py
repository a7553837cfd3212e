"""Safety-contract rules (SAFE family): cross-file invariants.

These encode contracts that span modules: the detection weight table
must cover every event kind the infrastructure can emit (SAFE001 —
the paper's §6 evidence model, previously enforced only at test
runtime), and every metric/span name emitted through the obs
singletons must be declared in :mod:`repro.obs.names` (SAFE002 —
catching typo'd label drift before it ships a dashboard-less metric).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.base import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    dotted_source,
    register,
)
from repro.lint.findings import Finding


def _class_members(tree: ast.Module, class_name: str) -> dict[str, int]:
    """Uppercase name -> line for assignments in ``class_name``'s body."""
    members: dict[str, int] = {}
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    members[target.id] = stmt.lineno
    return members


def _weight_table_keys(
    tree: ast.Module, table_name: str, enum_name: str
) -> dict[str, int]:
    """``EnumName.MEMBER`` keys of the dict bound to ``table_name``."""
    keys: dict[str, int] = {}
    for node in tree.body:
        value: ast.expr | None = None
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if node.target.id == table_name:
                value = node.value
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == table_name
                for t in node.targets
            ):
                value = node.value
        if not isinstance(value, ast.Dict):
            continue
        for key in value.keys:
            if (
                isinstance(key, ast.Attribute)
                and isinstance(key.value, ast.Name)
                and key.value.id == enum_name
            ):
                keys[key.attr] = key.lineno
    return keys


@register
class WeightTableCompleteRule(ProjectRule):
    """SAFE001: every EventKind member has a suspicion weight."""

    rule_id = "SAFE001"
    title = "every EventKind member appears in detection.weights"
    hint = (
        "add a SuspicionWeight entry (weight + rationale) to "
        "repro.detection.weights.SUSPICION_WEIGHTS for the new kind, "
        "and a matching row to the DESIGN.md weight table"
    )
    src_only = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        events = project.parse(project.config.events_path)
        weights = project.parse(project.config.weights_path)
        if events is None or weights is None:
            return
        members = _class_members(events, "EventKind")
        if not members:
            return
        keys = _weight_table_keys(weights, "SUSPICION_WEIGHTS", "EventKind")
        for member, line in sorted(members.items()):
            if member not in keys:
                yield Finding(
                    rule_id=self.rule_id,
                    path=project.config.events_path,
                    line=line, col=0,
                    message=(
                        f"EventKind.{member} has no entry in "
                        "SUSPICION_WEIGHTS; the analyzer would fall "
                        "back to an unaudited default"
                    ),
                    hint=self.hint, severity=self.severity,
                )
        for key, line in sorted(keys.items()):
            if key not in members:
                yield Finding(
                    rule_id=self.rule_id,
                    path=project.config.weights_path,
                    line=line, col=0,
                    message=(
                        f"SUSPICION_WEIGHTS keys EventKind.{key}, which "
                        "is not a declared EventKind member (stale entry)"
                    ),
                    hint=self.hint, severity=self.severity,
                )


def _is_metrics_base(base: str) -> bool:
    return base == "metrics" or base.endswith(".metrics")


def _is_tracer_base(base: str) -> bool:
    return (
        base in ("tracer", "obs.tracer")
        or base.endswith(".tracer")
        or base.endswith("_tracer")
    )


@register
class DeclaredObsNameRule(FileRule):
    """SAFE002: emitted metric/span names must be declared constants."""

    rule_id = "SAFE002"
    title = "emitted metric/span names are declared in repro.obs.names"
    hint = (
        "declare the name as an UPPER_CASE constant in "
        "src/repro/obs/names.py (and document it in OBSERVABILITY.md); "
        "the registry is what keeps dashboards, docs, and emissions "
        "from drifting apart"
    )
    src_only = True

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        declared = ctx.project.declared_obs_names()
        if declared is None:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, declared)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, declared: frozenset[str]
    ) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        base = dotted_source(node.func.value)
        if base is None:
            return
        attr = node.func.attr
        is_metric = attr in ("counter", "gauge", "histogram")
        if is_metric and not _is_metrics_base(base):
            return
        if attr == "span" and not _is_tracer_base(base):
            return
        if not is_metric and attr != "span":
            return
        if not node.args:
            return
        name_arg = node.args[0]
        kind = "metric" if is_metric else "span"
        if isinstance(name_arg, ast.Constant) and isinstance(
            name_arg.value, str
        ):
            if name_arg.value not in declared:
                yield self.make(ctx, name_arg, (
                    f"{kind} name {name_arg.value!r} is not declared in "
                    "repro.obs.names"
                ))
        elif isinstance(name_arg, (ast.JoinedStr, ast.BinOp)):
            yield self.make(ctx, name_arg, (
                f"{kind} name is built dynamically; emit a declared "
                "constant and move variability into labels/attrs"
            ))


__all__ = ["DeclaredObsNameRule", "WeightTableCompleteRule"]
