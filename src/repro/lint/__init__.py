"""``repro.lint`` — AST-based invariant linter for this repo's contracts.

The paper's thesis is that silent corruption survives exactly as long
as nothing checks the invariants everything else assumes (§5–§6);
SiliFuzz and the Meta SDC work both conclude that *systematic scanning*
— not review — is what finds such defects at scale.  This package
applies that stance to the codebase itself: the behavioural contracts
the test suite enforces at runtime (deterministic seeding, simulated
time, a complete evidence-weight table, declared observability names,
hot-path object layout) are enforced *statically*, so a violating diff
fails ``repro lint`` before it can merge.

Rule pack (see CONTRIBUTING.md "Static analysis & invariants"):

- ``DET001`` — no module-level RNG state; thread seeded Generators.
- ``DET002`` — no wall-clock reads outside the benchmarking layer.
- ``DET003`` — no set iteration feeding ordered results.
- ``DET004`` — RNG/SeedSequence seeds trace to the trial seed
  (dataflow taint over :mod:`repro.lint.dataflow`).
- ``SAFE001`` — every ``EventKind`` has a suspicion weight.
- ``SAFE002`` — emitted metric/span names are declared constants.
- ``OBS003`` — every declared obs name is emitted somewhere.
- ``SHM001`` — no writes through snapshot-attached fleet views.
- ``ARCH001`` — module-level imports respect the package layer DAG.
- ``PERF001`` — hot-path dataclasses declare ``__slots__``.
- ``PERF002`` — hot-path modules never loop over ``.cores`` in Python.
- ``API001`` — no mutable default arguments.

Importing this package registers the rule pack; add a rule by
subclassing :class:`FileRule` / :class:`ProjectRule` with ``@register``
in a ``rules_*`` module and importing it here.
"""

from __future__ import annotations

from repro.lint.base import (  # noqa: F401  (re-exported API)
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    RULES,
    Rule,
    all_rules,
    register,
)
from repro.lint.findings import Finding, Severity  # noqa: F401
from repro.lint.engine import (  # noqa: F401
    LintConfig,
    LintResult,
    lint_source,
    run_lint,
)

# importing the rule modules populates the registry
from repro.lint import rules_api  # noqa: F401,E402
from repro.lint import rules_arch  # noqa: F401,E402
from repro.lint import rules_det  # noqa: F401,E402
from repro.lint import rules_flow  # noqa: F401,E402
from repro.lint import rules_obs  # noqa: F401,E402
from repro.lint import rules_perf  # noqa: F401,E402
from repro.lint import rules_safe  # noqa: F401,E402

__all__ = [
    "Finding",
    "FileContext",
    "FileRule",
    "LintConfig",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "Severity",
    "all_rules",
    "lint_source",
    "register",
    "run_lint",
]
