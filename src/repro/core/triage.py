"""Human triage of suspect cores.

§6: "The humans running our production services identify a lot of
suspect cores, in the course of incident triage, debugging, and so
forth.  In our recent experience, roughly half of these human-identified
suspects are actually proven, on deeper investigation, to be mercurial
cores — we must extract 'confessions' via further testing (often after
first developing a new automatable test).  The other half is a mix of
false accusations and limited reproducibility."

:class:`HumanTriageModel` reproduces that workflow: incidents make
humans file suspects (with imperfect attribution), investigation tries
to extract a confession, and the three §6 outcomes fall out.  When an
actual :class:`~repro.silicon.core.Core` is available the confession can
be a *real* test run (pass ``confession_test``); otherwise the stochastic
reproducibility model is used.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable

import numpy as np


class TriageOutcome(enum.Enum):
    """§6's three ends of an investigation."""

    CONFIRMED = "confirmed"                 # confession extracted
    FALSE_ACCUSATION = "false_accusation"   # core exonerated
    UNREPRODUCIBLE = "unreproducible"       # real or not, it won't confess


@dataclasses.dataclass(frozen=True)
class Investigation:
    """Record of one human investigation."""

    core_id: str
    outcome: TriageOutcome
    started_days: float
    duration_days: float
    attempts: int


class HumanTriageModel:
    """Stochastic model of the human side of mercurial-core hunting.

    Args:
        rng: randomness source.
        p_flag_given_core_incident: probability a human files a suspect
            when an incident genuinely traces to a specific core.
        p_misattribute: probability the human fingers the *wrong* core
            (a healthy one) for a real incident — one source of the
            "false accusations" half.
        p_confess_given_mercurial: probability investigation reproduces
            a genuinely mercurial core's failure — the complement is
            "limited reproducibility".
        p_false_positive_signal: probability an unrelated software bug
            or transient makes a human suspect a healthy core at all.
        investigation_days: (low, high) uniform duration of one
            investigation; the paper applied "many engineer-decades".
    """

    def __init__(
        self,
        rng: np.random.Generator,
        p_flag_given_core_incident: float = 0.6,
        p_misattribute: float = 0.15,
        p_confess_given_mercurial: float = 0.8,
        p_false_positive_signal: float = 0.15,
        investigation_days: tuple[float, float] = (2.0, 21.0),
    ) -> None:
        for name, p in (
            ("p_flag_given_core_incident", p_flag_given_core_incident),
            ("p_misattribute", p_misattribute),
            ("p_confess_given_mercurial", p_confess_given_mercurial),
            ("p_false_positive_signal", p_false_positive_signal),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        self.rng = rng
        self.p_flag_given_core_incident = p_flag_given_core_incident
        self.p_misattribute = p_misattribute
        self.p_confess_given_mercurial = p_confess_given_mercurial
        self.p_false_positive_signal = p_false_positive_signal
        self.investigation_days = investigation_days
        self.investigations: list[Investigation] = []

    # -- filing suspects -------------------------------------------------

    def files_suspect(self, incident_is_cee: bool) -> bool:
        """Does a human file a suspect for this production incident?"""
        if incident_is_cee:
            return self.rng.random() < self.p_flag_given_core_incident
        return self.rng.random() < self.p_false_positive_signal

    def attributed_core_is_right(self) -> bool:
        """Did the human finger the actually-failing core?"""
        return self.rng.random() >= self.p_misattribute

    # -- investigating ----------------------------------------------------

    def investigate(
        self,
        core_id: str,
        core_is_mercurial: bool,
        started_days: float,
        confession_test: Callable[[], bool] | None = None,
        attempts: int = 5,
    ) -> Investigation:
        """Investigate one suspect and record the outcome.

        If ``confession_test`` is given it is run up to ``attempts``
        times; any failure is a confession.  Otherwise the stochastic
        reproducibility model decides.
        """
        low, high = self.investigation_days
        duration = float(self.rng.uniform(low, high))
        used_attempts = attempts
        if confession_test is not None:
            confessed = False
            for attempt in range(1, attempts + 1):
                if confession_test():
                    confessed = True
                    used_attempts = attempt
                    break
            if confessed:
                outcome = TriageOutcome.CONFIRMED
            elif core_is_mercurial:
                outcome = TriageOutcome.UNREPRODUCIBLE
            else:
                outcome = TriageOutcome.FALSE_ACCUSATION
        elif core_is_mercurial:
            if self.rng.random() < self.p_confess_given_mercurial:
                outcome = TriageOutcome.CONFIRMED
            else:
                outcome = TriageOutcome.UNREPRODUCIBLE
        else:
            # Healthy cores never confess; investigations either clear
            # them or peter out without reproduction.
            if self.rng.random() < 0.7:
                outcome = TriageOutcome.FALSE_ACCUSATION
            else:
                outcome = TriageOutcome.UNREPRODUCIBLE
        record = Investigation(
            core_id=core_id,
            outcome=outcome,
            started_days=started_days,
            duration_days=duration,
            attempts=used_attempts,
        )
        self.investigations.append(record)
        return record

    # -- aggregate statistics ----------------------------------------------

    def outcome_fractions(self) -> dict[TriageOutcome, float]:
        """Fraction of investigations per outcome (the §6 'roughly half')."""
        total = len(self.investigations)
        if total == 0:
            return {outcome: 0.0 for outcome in TriageOutcome}
        return {
            outcome: sum(1 for i in self.investigations if i.outcome is outcome)
            / total
            for outcome in TriageOutcome
        }
