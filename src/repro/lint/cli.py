"""``repro lint`` — the invariant gate's command-line face.

Usage::

    repro lint                         # src tests benchmarks scripts
    repro lint src/repro/serving       # narrow to a subtree
    repro lint --json                  # machine-readable findings
    repro lint --select DET001,API001  # one or a few rules
    repro lint --root DIR PATH         # PATHs resolve under DIR
    repro lint --list-rules            # the registered rule pack

Every run is cold and single-process; ``# repro: noqa-RULE`` is the
one way to accept a finding.  Exit status: 0 clean (every finding
suppressed), 1 findings, 2 usage error — including a PATH that holds
no ``*.py`` file, so a typo cannot pass the gate by scanning nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.base import RULES, all_rules
from repro.lint.engine import LintConfig, run_lint

#: what ``repro lint`` scans when no paths are given
DEFAULT_PATHS: tuple[str, ...] = ("src", "tests", "benchmarks", "scripts")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to a parser (shared with ``repro`` CLI)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files or directories (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print structured findings instead of human-readable lines",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory PATHs resolve under and findings are reported "
             "relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )


def _print_rules() -> int:
    width = max(len(rule_id) for rule_id in RULES)
    for rule in all_rules():
        print(f"{rule.rule_id:<{width}}  [{rule.severity.value:<7}] "
              f"{rule.title}")
    return 0


def _resolve_select(text: str | None) -> frozenset[str] | None:
    if text is None:
        return None
    requested = frozenset(
        part.strip().upper() for part in text.split(",") if part.strip()
    )
    unknown = sorted(requested - set(RULES))
    if unknown:
        known = ", ".join(sorted(RULES))
        raise SystemExit(
            f"repro lint: unknown rule(s) {', '.join(unknown)} "
            f"(known: {known})"
        )
    return requested


def run(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro lint`` invocation."""
    if args.list_rules:
        return _print_rules()
    root = Path(args.root)
    # defaults absent from the root are skipped; when none exist, all
    # are passed on so discovery reports them rather than scan nothing
    paths = list(args.paths) or [
        p for p in DEFAULT_PATHS if (root / p).exists()
    ] or list(DEFAULT_PATHS)
    config = LintConfig(select=_resolve_select(args.select))
    try:
        result = run_lint(paths, root=root, config=config)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        json.dump(result.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
        return result.exit_status

    for finding in result.new:
        print(finding.render())
        if finding.hint:
            print(f"    hint: {finding.hint}")
    print(
        f"{result.files_scanned} file(s) scanned: "
        f"{len(result.new)} finding(s), {result.suppressed} suppressed",
        file=sys.stderr,
    )
    return result.exit_status


__all__ = ["DEFAULT_PATHS", "add_arguments", "run"]
