"""Source invariants no runtime test can see, checked on the AST.

Each check returns the sites it finds in ``src/repro`` (the tests-side
rule: in ``tests``); the repo must match its expected set exactly, so a
new site fails and so does a stale allowlist entry.  Each check also
runs on a seeded edit of a real file, so a check gone blind fails too.
Seeding and simulated time are held by the pins in ``tests/pins.py``,
the weight table by ``TestSuspicionWeightTable``,
snapshot writes by the read-only views ``repro.fleet.shm.attach``
returns, and mutable defaults by ruff's B006.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: the package layer DAG, bottom-up: a module-level import may point at
#: its own layer or a lower one, never a higher one
LAYERS: tuple[tuple[str, ...], ...] = (
    ("core", "obs"),
    ("silicon", "fleet"),
    ("workloads",),
    ("campaign", "chaos", "detection", "mitigation", "serving", "storage"),
    ("engine",),
    ("analysis",),
    ("cli", "__main__"),
)

#: deliberate upward imports, ``importer -> imported``, with the reason
UPWARD_IMPORTS = {
    "repro.fleet.simulator -> repro.detection.signals": "the simulator drives"
    " the real detection stack (the paper's point is testing production"
    " detectors, not mocks)",
    "repro.fleet.simulator -> repro.workloads.generator": "fleet days replay"
    " the production workload blend so corruption rates match the serving mix",
    "repro.fleet.scheduler -> repro.detection.quarantine": "the scheduler"
    " steers suspect cores onto the same safe mix the quarantine policy"
    " defines, by design",
}

#: modules allocating dataclasses per op, request or event: all declare ``__slots__``
SLOTS_MODULES = tuple(f"src/repro/{name}.py" for name in (
    "campaign", "core/events", "detection/fleetscreen", "engine/runner",
    "fleet/machine", "mitigation/instrcheck/campaign",
    "mitigation/instrcheck/policies", "serving/service", "silicon/defects",
    "silicon/isa", "silicon/vm", "storage/wal", "workloads/base",
))

#: the columnar substrate and its fleet-scale users: no Python loop over
#: ``.cores`` (at a million cores one costs more than a campaign tick)
COLUMNAR_MODULES = tuple(f"src/repro/{name}.py" for name in (
    "detection/fleetscreen", "engine/runner", "fleet/columns",
    "fleet/population", "fleet/scheduler", "fleet/shm", "fleet/simulator",
))

#: per-core loops that stay, ``path::qualname`` of the enclosing def
PER_CORE_LOOPS: dict[str, str] = {}

Trees = dict[str, ast.Module]


@functools.cache
def _repo_trees(root: str = "src/repro") -> Trees:
    return {
        path.relative_to(REPO).as_posix(): ast.parse(path.read_text())
        for path in sorted((REPO / root).rglob("*.py"))
    }


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return node.id if isinstance(node, ast.Name) else ""


def _loop_iterables(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    return [gen.iter for gen in getattr(node, "generators", ())]  # comprehensions


def _is_set(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and _dotted(node.func) in ("set", "frozenset")
    )


def unordered_iterations(trees: Trees) -> set[str]:
    """Sets iterated, or turned into a sequence, in hash order: that
    order differs across processes and breaks byte-identical results."""
    found = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            iterables = _loop_iterables(node)
            func = getattr(node, "func", None)
            called = getattr(func, "attr", getattr(func, "id", ""))
            if called in ("list", "tuple", "enumerate", "join") and node.args:
                iterables.append(node.args[0])
            found |= {f"{path}:{it.lineno}" for it in iterables if _is_set(it)}
    return found


def slotless_dataclasses(trees: Trees) -> set[str]:
    return {
        f"{path}::{cls.name}"
        for path in SLOTS_MODULES
        for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)
        for deco in map(ast.unparse, cls.decorator_list)
        if "dataclass" in deco and "slots=True" not in deco
        and not any(isinstance(stmt, ast.Assign) and _dotted(stmt.targets[0]) == "__slots__"
                    for stmt in cls.body)
    }


def _scoped(node: ast.AST, scope: str = ""):
    """Every descendant of ``node`` with the qualname of the def or class
    around it; an ``if TYPE_CHECKING:`` block is a scope too (never runs)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        elif isinstance(child, ast.If) and _dotted(child.test).endswith("TYPE_CHECKING"):
            inner = f"{scope}.TYPE_CHECKING".lstrip(".")
        yield scope, child
        yield from _scoped(child, inner)


def per_core_loops(trees: Trees) -> set[str]:
    return {
        f"{path}::{scope}"
        for path in COLUMNAR_MODULES
        for scope, node in _scoped(trees[path])
        for iterable in _loop_iterables(node)
        if any(isinstance(sub, ast.Attribute) and sub.attr == "cores"
               for sub in ast.walk(iterable))
    }


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module == "repro":
        return [f"repro.{alias.name}" for alias in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) and node.module else []


def upward_imports(trees: Trees) -> set[str]:
    """Module-level imports (a function-local one is lazy) against LAYERS."""
    layer = {pkg: i for i, names in enumerate(LAYERS) for pkg in names}
    found = set()
    for path, tree in trees.items():
        module = path[4:-3].replace("/", ".").removesuffix(".__init__")
        own = module.partition(".")[2].partition(".")[0]
        for imported in (i for scope, node in _scoped(tree) if not scope
                         for i in _imported(node)):
            parts = imported.split(".") + [""]
            if parts[0] != "repro" or not own or parts[1] in ("", own):
                continue
            if own not in layer or parts[1] not in layer:
                found.add(f"{module} -> {imported} (not in LAYERS)")
            elif layer[parts[1]] > layer[own]:
                found.add(f"{module} -> {imported}")
    return found


def undeclared_or_dead_names(trees: Trees) -> set[str]:
    """Names ``repro.obs.names`` declares that nothing emits, and names
    emitted that it does not declare.  Emitting is passing a literal to
    ``metrics.counter|gauge|histogram`` or ``tracer.span``, or reading
    ``names.X`` (as a ``Published`` row does); a name built at run time
    is never declared."""
    names_module = "src/repro/obs/names.py"
    declared = {
        target.id: stmt.value.value for stmt in trees[names_module].body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
        for target in stmt.targets if _dotted(target).isupper()
    }
    emitted = set()
    for path, tree in trees.items():
        for node in ast.walk(tree) if path != names_module else ():
            if isinstance(node, ast.Attribute) and node.attr in declared:
                if _dotted(node.value).split(".")[-1] == "names":
                    emitted.add(declared[node.attr])
            if not (isinstance(node, ast.Call) and node.args):
                continue
            base, _, attr = _dotted(node.func).rpartition(".")
            arg = node.args[0]
            if not (attr in ("counter", "gauge", "histogram") and base.endswith("metrics")
                    or attr == "span" and base.endswith("tracer")):
                continue
            if isinstance(arg, ast.Constant):
                emitted.add(arg.value)
            elif isinstance(arg, (ast.JoinedStr, ast.BinOp)):
                emitted.add(f"dynamic name at {path}:{arg.lineno}")
    return emitted ^ set(declared.values())


#: the one module under ``tests`` that may hold a digest or hash one
PINS_MODULE = "tests/pins.py"
SHA256_HEX = re.compile(r"[0-9a-fA-F]{64}")


def pins_outside_the_table(trees: Trees) -> set[str]:
    """A 64-hex-digit literal or a ``hashlib`` import in a test module
    other than ``tests/pins.py``: every pin lives in its ``PINS`` and is
    hashed by its ``digest``, so a pin cannot hide in one file or hash
    a second way."""
    found = set()
    for path, tree in trees.items():
        for node in ast.walk(tree) if path != PINS_MODULE else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if SHA256_HEX.search(node.value):
                    found.add(f"{path}:{node.lineno} digest literal")
            elif "hashlib" in _imported(node):
                found.add(f"{path}:{node.lineno} imports hashlib")
    return found


CHECKS = {
    unordered_iterations: set(),
    slotless_dataclasses: set(),
    per_core_loops: set(PER_CORE_LOOPS),
    upward_imports: set(UPWARD_IMPORTS),
    undeclared_or_dead_names: set(),
    pins_outside_the_table: set(),
}

#: the checks that read ``tests`` instead of ``src/repro``
TESTS_SIDE = {pins_outside_the_table}


def _trees_for(check) -> Trees:
    return _repo_trees("tests" if check in TESTS_SIDE else "src/repro")


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_repo_holds_the_invariant(check):
    assert check(_trees_for(check)) == CHECKS[check]


#: (check, file, text, replacement): an edit of a real file to catch
SEEDS = [
    (unordered_iterations, "src/repro/storage/antientropy.py",
     "for key in sorted(table):", "for key in set(table):"),
    (slotless_dataclasses, "src/repro/workloads/base.py",
     "@dataclasses.dataclass(slots=True)", "@dataclasses.dataclass"),
    (per_core_loops, "src/repro/fleet/simulator.py",
     "class FleetSimulator:",
     "def _online(machines):\n    return [c for m in machines for c in m.cores]"
     "\n\n\nclass FleetSimulator:"),
    (upward_imports, "src/repro/fleet/machine.py",
     "import dataclasses\n", "import dataclasses\nimport repro.detection\n"),
    (undeclared_or_dead_names, "src/repro/fleet/simulator.py",
     '"fleet_ticks_total"', '"fleet_tick_total"'),
    (undeclared_or_dead_names, "src/repro/obs/names.py",
     "# -- span names", 'SPAN_FLEET_DEAD = "fleet.dead"\n# -- span names'),
    (undeclared_or_dead_names, "src/repro/storage/store.py",
     'span("storage.put"', 'span(f"storage.{key}"'),
    (pins_outside_the_table, "tests/test_obs_spans.py",
     "import json\n", "import hashlib\nimport json\n"),
    (pins_outside_the_table, "tests/test_options.py",
     "KEYWORD_DEFAULTS = 313",
     'KEYWORD_DEFAULTS = (313, "' + "9f" * 32 + '")'),
]


@pytest.mark.parametrize("check, path, text, replacement", SEEDS,
                         ids=[f"{c.__name__}-{Path(p).stem}" for c, p, *_ in SEEDS])
def test_seeded_violation_is_caught(check, path, text, replacement):
    source = (REPO / path).read_text()
    assert text in source, f"seed anchor gone from {path}; re-seed"
    trees = {**_trees_for(check), path: ast.parse(source.replace(text, replacement, 1))}
    assert check(trees) != CHECKS[check]
