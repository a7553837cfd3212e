"""API-hygiene rules (API family).

API001 is the classic shared-mutable-default trap: a ``def f(x=[])``
default is evaluated once at definition time, so every call shares the
same list — in this codebase that shape has an extra sting, because a
shared accumulator crossing trials silently breaks worker-count
invariance (trial N sees state from trial N-1 only when both land on
the same pool worker).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import FileContext, FileRule, dotted_source, register
from repro.lint.findings import Finding

#: call targets that construct a fresh mutable container
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
_MUTABLE_CALL_TAILS = ("defaultdict", "OrderedDict", "Counter", "deque")


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_source(node.func)
        if dotted is None:
            return False
        tail = dotted.split(".")[-1]
        return tail in _MUTABLE_CALLS or tail in _MUTABLE_CALL_TAILS
    return False


@register
class MutableDefaultRule(FileRule):
    """API001: no mutable default arguments."""

    rule_id = "API001"
    title = "no mutable default arguments"
    hint = (
        "default to None and construct inside the function, or use "
        "dataclasses.field(default_factory=...) for dataclass fields"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            name = getattr(node, "name", "<lambda>")
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.make(ctx, default, (
                        f"function {name!r} has a mutable default "
                        "argument (shared across calls)"
                    ))


__all__ = ["MutableDefaultRule"]
