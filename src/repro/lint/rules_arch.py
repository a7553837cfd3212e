"""Architecture rule (ARCH001): the layer DAG has no back-edges.

The repo's package layering — ``core/obs`` at the bottom, then
``silicon``/``fleet``, then ``workloads``, then the campaign layers
(``detection``/``mitigation``/``serving``/``storage``/``chaos``),
then ``engine``, ``analysis``, and finally the operator surface
(``cli``/``lint``) — was until now a convention in DESIGN.md §4 that
nothing checked, exactly the failure mode the paper warns about.
ARCH001 makes it a contract: the table lives in
:attr:`~repro.lint.engine.LintConfig.layers` and every *module-level*
import must point at the same or a lower layer.

Escapes, in preference order: (1) restructure so the dependency
points downward; (2) defer with a function-local import (the edge
becomes lazy and leaves the module import graph); (3) annotate a
deliberate upward edge with ``# repro: noqa-ARCH001 -- <why>`` on the
import line — the documented-embed pattern the fleet simulator uses
for the real detection stack it drives.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.base import FileContext, FileRule, register
from repro.lint.findings import Finding


def module_name(rel_path: str) -> str | None:
    """Dotted module for a repo-relative path, or None outside src/.

    ``src/repro/fleet/shm.py`` -> ``repro.fleet.shm``;
    ``src/repro/__init__.py`` -> ``repro``.
    """
    parts = rel_path.split("/")
    if parts[:1] != ["src"] or not rel_path.endswith(".py"):
        return None
    dotted = parts[1:]
    dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else None


def top_package(module: str) -> str | None:
    """The layer-granularity package of a ``repro`` module.

    ``repro.fleet.shm`` -> ``fleet``; top-level modules map to
    themselves (``repro.chaos`` -> ``chaos``, ``repro.cli`` ->
    ``cli``); the bare root package returns None.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
    )


def _module_level_stmts(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, descending into if/try wrappers.

    ``if TYPE_CHECKING:`` bodies are skipped — those imports never run.
    Function and class bodies are *not* descended into: imports there
    are deferred by construction.
    """
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if _is_type_checking_guard(stmt):
            stack.extend(stmt.orelse)
            continue
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
            continue
        if isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            for handler in stmt.handlers:
                stack.extend(handler.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)
            continue
        yield stmt


def module_imports(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(imported module, import statement) for each module-level
    ``repro`` import of one parsed file.

    ``from repro import obs`` resolves per-alias to ``repro.obs``;
    ``from repro.fleet import columns`` records ``repro.fleet`` (the
    package boundary is what layering cares about).
    """
    edges: list[tuple[str, ast.stmt]] = []
    for stmt in _module_level_stmts(tree):
        if isinstance(stmt, ast.Import):
            edges.extend(
                (alias.name, stmt) for alias in stmt.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
            module = stmt.module or ""
            if module == "repro":
                edges.extend(
                    (f"repro.{alias.name}", stmt) for alias in stmt.names
                )
            elif module.startswith("repro."):
                edges.append((module, stmt))
    return edges


@register
class LayerDagRule(FileRule):
    """ARCH001: module-level imports respect the layer DAG."""

    rule_id = "ARCH001"
    title = "module-level imports respect the package layer DAG"
    hint = (
        "point the dependency downward, defer it with a "
        "function-local import, or mark a deliberate embed with "
        "'# repro: noqa-ARCH001 -- <why>'; the layer table is "
        "LintConfig.layers (documented in DESIGN.md)"
    )
    src_only = True

    def _layer_index(self, ctx: FileContext) -> dict[str, int]:
        return {
            package: index
            for index, layer in enumerate(ctx.config.layers)
            for package in layer
        }

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        dotted = module_name(ctx.rel_path)
        if dotted is None:
            return
        own = top_package(dotted)
        if own is None:
            return                 # the bare package root (__init__.py)
        layers = self._layer_index(ctx)
        own_layer = layers.get(own)
        if own_layer is None:
            # a *subpackage* must be placed in the table; a loose
            # top-level module (src/repro/<name>.py) is an entry-point
            # shape and sits at the top: anything below is importable
            if len(ctx.rel_path.split("/")) >= 4:
                yield self.make(ctx, ctx.tree, (
                    f"package '{own}' is not in the LintConfig.layers "
                    "table; add it to the layer it belongs to"
                ))
                return
            own_layer = len(ctx.config.layers)
        for module, stmt in module_imports(ctx.tree):
            target = top_package(module)
            if target is None or target == own:
                continue
            if target not in layers:
                yield self.make(ctx, stmt, (
                    f"imported package '{target}' is not in the "
                    "LintConfig.layers table"
                ))
            elif layers[target] > own_layer:
                yield self.make(ctx, stmt, (
                    f"'{own}' (layer {own_layer}) imports "
                    f"'{module}' from higher layer {layers[target]}; "
                    "the layer DAG has no back-edges"
                ))


__all__ = ["LayerDagRule"]
