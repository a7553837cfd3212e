"""Dataflow rules (DET004 seed provenance, SHM001 shm write-safety).

Both rules ride the shared :mod:`repro.lint.dataflow` walker; each
declares only its taint sources and the sites it cares about.

``DET004`` closes the gap DET001 leaves open: DET001 bans the hidden
module RNG, but nothing stopped ``default_rng(42)`` — seeded, so
deterministic, yet *disconnected from the trial seed*, which quietly
breaks the "same seed, same scorecard" contract the moment two call
sites share the literal.  Every RNG/SeedSequence construction in
``src/repro`` must now trace its seed to a function parameter, a
config field, or a ``SeedSequence.spawn`` child.

``SHM001`` guards the columnar snapshot protocol: arrays reached from
``repro.fleet.shm.attach(...)`` are views into a shared read-only
segment — a worker that writes one corrupts *every* worker's fleet
silently (the exact §3 failure class this repo simulates).  Stores,
aug-assigns, and in-place numpy mutators on names whose def-chain
reaches an attach are flagged; ``thaw()`` / ``copy()`` kill the taint
because they produce private mutable copies.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

from repro.lint.base import FileContext, FileRule, dotted_source, register
from repro.lint.dataflow import Dataflow, TaintEnv, TaintPolicy
from repro.lint.findings import Finding
from repro.lint.rules_det import _module_aliases


def _has_call(ctx: FileContext, test: Callable[[ast.Call], bool]) -> bool:
    """Does any call in the file pass ``test``?

    The dataflow walk is the expensive part of DET004/SHM001, and it can
    only report at a call its policy recognizes (an RNG constructor, a
    shm attach) — so a file without one is skipped, with no finding lost.
    """
    return any(
        isinstance(node, ast.Call) and test(node) for node in ctx.nodes
    )


#: numpy.random constructors DET004 audits, with their seed argument
_CONSTRUCTORS: dict[str, str] = {
    "default_rng": "seed",
    "SeedSequence": "entropy",
    "Generator": "bit_generator",
}


def _numpy_random_bases(nodes: tuple[ast.AST, ...]) -> frozenset[str]:
    """Dotted prefixes that mean ``numpy.random`` in this file."""
    bases = {"numpy.random", "np.random"}
    for alias in _module_aliases(nodes, "numpy"):
        bases.add(f"{alias}.random")
    return frozenset(bases)


def _from_imported_constructors(
    nodes: tuple[ast.AST, ...]
) -> dict[str, str]:
    """Local name -> constructor for ``from numpy.random import ...``."""
    names: dict[str, str] = {}
    for node in nodes:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module in ("numpy.random", "np.random")
        ):
            for alias in node.names:
                if alias.name in _CONSTRUCTORS:
                    names[alias.asname or alias.name] = alias.name
    return names


class _SeedPolicy(TaintPolicy):
    """Taint = "derives from a trial seed": params, config fields,
    and anything computed from them (spawn children, rng draws,
    arithmetic)."""

    def __init__(self, rule: "SeedProvenanceRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: list[Finding] = []
        self.bases = _numpy_random_bases(ctx.nodes)
        self.imported = _from_imported_constructors(ctx.nodes)

    def param_source(self, name: str) -> bool:
        return True

    def attribute_load(self, node: ast.Attribute, base_tainted: bool) -> bool:
        # an attribute read is a config/state field — a declared home
        # for the seed, unlike a literal inlined at the call site
        return True

    def _constructor(self, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name):
            return self.imported.get(node.func.id)
        dotted = dotted_source(node.func)
        if dotted is None:
            return None
        base, _, tail = dotted.rpartition(".")
        if tail in _CONSTRUCTORS and base in self.bases:
            return tail
        return None

    def visit_statement(
        self, stmt: ast.stmt, env: TaintEnv, flow: Dataflow
    ) -> None:
        for call, call_env in flow.iter_calls(stmt, env):
            name = self._constructor(call)
            if name is None:
                continue
            seed_kw = _CONSTRUCTORS[name]
            seed_arg: ast.expr | None = None
            if call.args:
                seed_arg = call.args[0]
            else:
                for keyword in call.keywords:
                    if keyword.arg == seed_kw:
                        seed_arg = keyword.value
                        break
            if seed_arg is None:
                self.findings.append(self.rule.make(self.ctx, call, (
                    f"'{name}()' without a {seed_kw} argument draws OS "
                    "entropy; derive the seed from the trial seed"
                )))
            elif not flow.taint(seed_arg, call_env):
                what = (
                    "a literal"
                    if isinstance(seed_arg, ast.Constant)
                    else "an untainted local"
                )
                self.findings.append(self.rule.make(self.ctx, call, (
                    f"{seed_kw} argument of '{name}(...)' is {what}; it "
                    "must trace to a function parameter, config field, "
                    "or SeedSequence.spawn child"
                )))


@register
class SeedProvenanceRule(FileRule):
    """DET004: RNG constructions must derive from the trial seed."""

    rule_id = "DET004"
    title = "RNG/SeedSequence seeds trace to the trial seed"
    hint = (
        "pass the seed in as a parameter or config field (ultimately "
        "from SeedSequence.spawn / derive_trial_seeds); a fixed "
        "literal is deterministic but severed from the campaign seed "
        "— if the site is a deliberate fixed oracle, say so with "
        "'# repro: noqa-DET004 -- <why>'"
    )
    src_only = True

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        policy = _SeedPolicy(self, ctx)
        if _has_call(ctx, lambda call: policy._constructor(call) is not None):
            Dataflow(policy).run(ctx.tree)
        return policy.findings


#: ndarray methods that mutate in place (reads stay legal on views)
_INPLACE_METHODS = frozenset({
    "fill", "sort", "partition", "put", "itemset", "resize",
    "setfield", "setflags",
})

#: numpy module-level functions whose *first* argument is mutated
_INPLACE_FUNCTIONS = frozenset({"copyto", "put", "place", "putmask"})

#: calls that produce a private mutable copy — taint stops here
_COPY_TAILS = frozenset({"thaw", "copy", "deepcopy"})


def _attach_names(nodes: tuple[ast.AST, ...]) -> frozenset[str]:
    """Local names bound to ``repro.fleet.shm.attach`` via from-import."""
    names: set[str] = set()
    for node in nodes:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == "repro.fleet.shm"
        ):
            for alias in node.names:
                if alias.name == "attach":
                    names.add(alias.asname or alias.name)
    return frozenset(names)


class _ShmPolicy(TaintPolicy):
    """Taint = "is (a view into) a snapshot-attached fleet"."""

    def __init__(self, rule: "ShmWriteSafetyRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: list[Finding] = []
        self.attach_names = _attach_names(ctx.nodes)

    def call_override(self, node: ast.Call) -> bool | None:
        dotted = dotted_source(node.func)
        tail = dotted.rpartition(".")[2] if dotted else None
        if tail in _COPY_TAILS:
            return False
        if tail == "attach":
            if isinstance(node.func, ast.Attribute):
                return True          # shm.attach(...), fleet_shm.attach(...)
            if dotted in self.attach_names:
                return True          # from repro.fleet.shm import attach
        return None

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.make(self.ctx, node, message))

    def _root_dotted(self, node: ast.expr) -> str:
        return dotted_source(node) or "<snapshot view>"

    def visit_statement(
        self, stmt: ast.stmt, env: TaintEnv, flow: Dataflow
    ) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_store(target, env, flow)
        elif isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._check_store(target, env, flow, augmented=True)
            elif isinstance(target, ast.Name) and flow.taint(target, env):
                self._flag(stmt, (
                    f"augmented assignment to '{target.id}' mutates a "
                    "snapshot-attached array in place"
                ))
        for call, call_env in flow.iter_calls(stmt, env):
            self._check_call(call, call_env, flow)

    def _check_store(
        self, target: ast.expr, env: TaintEnv, flow: Dataflow,
        augmented: bool = False,
    ) -> None:
        if isinstance(target, ast.Subscript) and flow.taint(
            target.value, env
        ):
            verb = "augmented subscript store" if augmented else (
                "subscript store"
            )
            self._flag(target, (
                f"{verb} into snapshot-attached "
                f"'{self._root_dotted(target.value)}'; shm views are "
                "read-only in workers"
            ))
        elif isinstance(target, ast.Attribute) and flow.taint(
            target.value, env
        ):
            self._flag(target, (
                f"attribute store on snapshot-attached "
                f"'{self._root_dotted(target.value)}'; thaw() a private "
                "copy before mutating"
            ))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt, env, flow, augmented=augmented)

    def _check_call(
        self, call: ast.Call, env: TaintEnv, flow: Dataflow
    ) -> None:
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _INPLACE_METHODS and flow.taint(call.func.value, env):
                self._flag(call, (
                    f"in-place '.{attr}()' on snapshot-attached "
                    f"'{self._root_dotted(call.func.value)}'"
                ))
                return
            if (
                attr in _INPLACE_FUNCTIONS
                and call.args
                and flow.taint(call.args[0], env)
            ):
                self._flag(call, (
                    f"'{dotted_source(call.func)}(...)' writes into "
                    "snapshot-attached "
                    f"'{self._root_dotted(call.args[0])}'"
                ))


@register
class ShmWriteSafetyRule(FileRule):
    """SHM001: no writes through snapshot-attached fleet views."""

    rule_id = "SHM001"
    title = "snapshot-attached fleet columns are never written"
    hint = (
        "shm-attached FleetColumns are zero-copy views into a shared "
        "read-only segment; call .thaw() (copy-on-thaw) and mutate "
        "the private copy, or do the write before publish()"
    )
    src_only = True

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        policy = _ShmPolicy(self, ctx)
        if _has_call(ctx, lambda call: policy.call_override(call) is True):
            Dataflow(policy).run(ctx.tree)
        return policy.findings


__all__ = ["SeedProvenanceRule", "ShmWriteSafetyRule"]
