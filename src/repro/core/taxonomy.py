"""The CEE symptom taxonomy of §2, "in increasing order of risk".

The paper classifies the observable consequences of a mercurial core:

1. wrong answers detected nearly immediately (self-checks, exceptions,
   segfaults) — retryable;
2. machine checks — more disruptive, but noisy;
3. wrong answers detected too late to retry;
4. wrong answers never detected — the worst case, with unbounded blast
   radius ("bad metadata can cause the loss of an entire file system").

E2 classifies every ground-truth corruption into one of these classes
by *when and whether* any detector noticed it.
"""

from __future__ import annotations

import enum


class Symptom(enum.Enum):
    """Observable consequence classes, ordered by increasing risk (§2)."""

    WRONG_ANSWER_IMMEDIATE = "wrong_answer_immediate"
    MACHINE_CHECK = "machine_check"
    WRONG_ANSWER_LATE = "wrong_answer_late"
    WRONG_ANSWER_UNDETECTED = "wrong_answer_undetected"

    @property
    def risk_rank(self) -> int:
        """Position in the paper's increasing-risk ordering (1 = least)."""
        return _RISK_ORDER.index(self) + 1


_RISK_ORDER = (
    Symptom.WRONG_ANSWER_IMMEDIATE,
    Symptom.MACHINE_CHECK,
    Symptom.WRONG_ANSWER_LATE,
    Symptom.WRONG_ANSWER_UNDETECTED,
)
