"""Determinism rules (DET family): seeds in, hidden state out.

The repo's reproducibility contract — same seed, same scorecard, any
worker count — only holds while no code path reads ambient
nondeterminism.  These rules make the three known leak classes
unmergeable: module-level RNG state (DET001), wall clocks in simulated
paths (DET002), and unordered-set iteration feeding results (DET003).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.base import FileContext, FileRule, dotted_source, register
from repro.lint.findings import Finding, Severity

#: stdlib ``random`` functions that mutate/read the hidden module RNG
_RANDOM_MODULE_FNS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "paretovariate", "vonmisesvariate", "weibullvariate", "triangular",
    "getrandbits", "randbytes", "binomialvariate",
})

#: ``numpy.random`` attributes that are explicit-state constructors
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "RandomState", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def _module_aliases(nodes: tuple[ast.AST, ...], module: str) -> set[str]:
    """Names the file binds to ``module`` via plain imports."""
    aliases: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
                elif alias.name.startswith(module + ".") and not alias.asname:
                    # ``import numpy.random`` binds top-level ``numpy``
                    aliases.add(module)
    return aliases


@register
class UnseededRandomRule(FileRule):
    """DET001: no module-level RNG state; thread a seeded Generator."""

    rule_id = "DET001"
    title = "no unseeded / module-level RNG state"
    hint = (
        "thread a numpy Generator derived from the trial seed "
        "(np.random.default_rng / SeedSequence.spawn) through the call "
        "chain instead of the hidden module-level RNG"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        random_aliases = _module_aliases(ctx.nodes, "random")
        numpy_aliases = _module_aliases(ctx.nodes, "numpy")
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    ctx, node, random_aliases, numpy_aliases
                )

    def _check_import_from(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_MODULE_FNS:
                    yield self.make(ctx, node, (
                        f"'from random import {alias.name}' pulls in the "
                        "hidden module-level RNG"
                    ))
        elif node.module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name not in _NP_RANDOM_ALLOWED:
                    yield self.make(ctx, node, (
                        f"'from numpy.random import {alias.name}' uses "
                        "numpy's module-level RNG state"
                    ))

    def _check_call(
        self, ctx: FileContext, node: ast.Call,
        random_aliases: set[str], numpy_aliases: set[str],
    ) -> Iterator[Finding]:
        dotted = dotted_source(node.func)
        if dotted is None or "." not in dotted:
            return
        base, _, fn = dotted.rpartition(".")
        if base in random_aliases and fn in _RANDOM_MODULE_FNS:
            yield self.make(ctx, node, (
                f"call to module-level '{dotted}()' draws from hidden "
                "global RNG state"
            ))
            return
        np_base, _, np_mid = base.rpartition(".")
        if (
            np_mid == "random"
            and (np_base in numpy_aliases or base in ("numpy.random",))
            and fn not in _NP_RANDOM_ALLOWED
        ):
            yield self.make(ctx, node, (
                f"call to legacy '{dotted}()' uses numpy's module-level "
                "RNG state"
            ))


#: ``time`` module functions that read the host clock
_TIME_MODULE_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
})

#: attribute tails that read the host clock off datetime objects
_DATETIME_TAILS = ("datetime.now", "datetime.utcnow", "date.today")


@register
class WallClockRule(FileRule):
    """DET002: no wall-clock reads outside the benchmarking layer."""

    rule_id = "DET002"
    title = "no wall-clock reads in simulated paths"
    hint = (
        "simulated components must take time from the campaign tick "
        "counter (ticks x tick_ms) or an injected clock; wall-clock "
        "timing belongs under benchmarks/ only"
    )

    def _allowed(self, ctx: FileContext) -> bool:
        for entry in ctx.config.wallclock_allowed:
            if entry.endswith("/"):
                if ctx.rel_path.startswith(entry):
                    return True
            elif ctx.rel_path == entry:
                return True
        return False

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if self._allowed(ctx):
            return
        time_aliases = _module_aliases(ctx.nodes, "time")
        from_time: set[str] = set()
        for node in ctx.nodes:
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module == "time"
            ):
                for alias in node.names:
                    if alias.name in _TIME_MODULE_FNS:
                        from_time.add(alias.asname or alias.name)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_source(node.func)
            if dotted is None:
                continue
            if dotted in from_time:
                yield self.make(ctx, node, (
                    f"call to '{dotted}()' (imported from time) reads "
                    "the host clock"
                ))
                continue
            base, _, fn = dotted.rpartition(".")
            if base in time_aliases and fn in _TIME_MODULE_FNS:
                yield self.make(ctx, node, (
                    f"call to '{dotted}()' reads the host clock"
                ))
            elif any(dotted.endswith(tail) for tail in _DATETIME_TAILS):
                yield self.make(ctx, node, (
                    f"call to '{dotted}()' reads the host clock/date"
                ))


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class UnorderedIterationRule(FileRule):
    """DET003: set iteration order must not reach ordered results."""

    rule_id = "DET003"
    title = "no iteration over unordered sets into ordered results"
    severity = Severity.WARNING
    hint = (
        "wrap the set in sorted(...) before iterating, or use an "
        "order-preserving container; hash-order iteration differs "
        "across processes and poisons byte-identical scorecards"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.make(ctx, node.iter, (
                    "for-loop iterates a set in hash order"
                ))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.make(ctx, gen.iter, (
                            "comprehension iterates a set in hash order"
                        ))
            elif isinstance(node, ast.Call):
                ordered_sink = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "enumerate")
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if ordered_sink and node.args and _is_set_expr(node.args[0]):
                    sink = (
                        node.func.id if isinstance(node.func, ast.Name)
                        else "str.join"
                    )
                    yield self.make(ctx, node.args[0], (
                        f"{sink}() materializes a set in hash order"
                    ))


__all__ = [
    "UnorderedIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
]
