"""Performance rules (PERF family): hot-path object-layout contracts.

The vectorized fleet loop and the per-op silicon path allocate these
dataclasses millions of times per campaign; ``__slots__`` keeps them
off the per-instance ``__dict__`` (measured in the PR-3 bench pass).
The module table in :class:`~repro.lint.engine.LintConfig` names the
files where that matters — PERF001 stops a refactor from silently
dropping the layout optimization, and PERF002 stops per-core Python
loops from creeping back into the columnar substrate's hot paths.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import FileContext, FileRule, dotted_source, register
from repro.lint.findings import Finding


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The dataclass decorator node, if this class has one."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_source(target)
        if dotted is not None and dotted.split(".")[-1] == "dataclass":
            return decorator
    return None


def _declares_slots(node: ast.ClassDef, decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        for keyword in decorator.keywords:
            if keyword.arg == "slots":
                return bool(getattr(keyword.value, "value", False))
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        ):
            return True
    return False


def _cores_attributes(iterable: ast.expr) -> Iterable[ast.Attribute]:
    """``.cores`` attribute accesses inside a loop's iterable expression."""
    for node in ast.walk(iterable):
        if isinstance(node, ast.Attribute) and node.attr == "cores":
            yield node


@register
class PerCoreLoopRule(FileRule):
    """PERF002: no per-core Python loops in columnar hot-path modules.

    The columnar substrate (:mod:`repro.fleet.columns`) exists so that
    fleet-scale code paths never iterate ``machine.cores`` in Python —
    at O(1M) cores one such loop costs more than an entire campaign
    tick.  This rule flags ``for`` loops (and comprehensions) whose
    iterable contains a ``.cores`` attribute access in the modules on
    the hot-path table; the sanctioned object-substrate compatibility
    paths carry ``# repro: noqa-PERF002`` with a tracking note.
    """

    rule_id = "PERF002"
    title = "hot-path modules never loop over .cores in Python"
    hint = (
        "use the FleetColumns arrays (flat indices, machine_core_range, "
        "numpy masks) instead of iterating Core objects; if this is a "
        "sanctioned object-substrate compat path, add "
        "'# repro: noqa-PERF002 -- <why>' on the reported line"
    )
    src_only = True

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.rel_path not in ctx.config.percore_loop_modules:
            return
        for node in ctx.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                iterables = [gen.iter for gen in node.generators]
            else:
                continue
            for iterable in iterables:
                for attr in _cores_attributes(iterable):
                    yield self.make(ctx, attr, (
                        "per-core Python loop over "
                        f"{dotted_source(attr) or '.cores'} in a "
                        "columnar hot-path module (lint per-core table)"
                    ))


@register
class HotPathSlotsRule(FileRule):
    """PERF001: hot-path dataclasses must declare ``__slots__``."""

    rule_id = "PERF001"
    title = "hot-path dataclasses declare __slots__"
    hint = (
        "add slots=True to the @dataclasses.dataclass(...) decorator "
        "(or an explicit __slots__); these modules allocate instances "
        "in per-op / per-request hot loops"
    )
    src_only = True

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.rel_path not in ctx.config.slots_modules:
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if not _declares_slots(node, decorator):
                yield self.make(ctx, node, (
                    f"dataclass {node.name!r} in a hot-path module "
                    "(lint slots table) does not declare __slots__"
                ))


__all__ = ["HotPathSlotsRule", "PerCoreLoopRule"]
