"""Finding model for the invariant linter: what a rule reports.

A :class:`Finding` is one violation at one source location.  Findings
are value objects: hashable, sortable, and JSON-serializable.
"""

from __future__ import annotations

import dataclasses
import enum


class Severity(enum.Enum):
    """How bad a violation is; both levels gate CI today."""

    ERROR = "error"
    WARNING = "warning"


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one location.

    Attributes:
        rule_id: e.g. ``"DET001"``.
        path: repo-relative posix path of the offending file.
        line: 1-based source line.
        col: 0-based column.
        message: what is wrong, specific to this site.
        hint: how to fix it (rule-level, actionable).
        severity: gate level.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    severity: Severity = Severity.ERROR
    #: last source line of the reported node (== line for single-line
    #: findings); ``# repro: noqa`` matches anywhere in line..end_line
    end_line: int = 0

    @property
    def last_line(self) -> int:
        """End of the reported node's line range (never before line)."""
        return max(self.line, self.end_line)

    def render(self) -> str:
        """One-line human rendering (``path:line:col RULE message``)."""
        return (
            f"{self.path}:{self.line}:{self.col} "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        """Strict-JSON dict (schema pinned by ``tests/test_lint.py``)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "end_line": self.last_line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: path, line, column, rule."""
    return sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
    )


__all__ = ["Finding", "Severity", "sort_findings"]
