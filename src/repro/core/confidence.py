"""Suspicion scoring: recidivism turns signals into confidence.

"Recidivism — repeated signals from the same core — increases our
confidence that a core is mercurial" (§6).  The tracker keeps a
per-core exponentially-decayed suspicion score.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass
class _CoreState:
    score: float = 0.0
    last_update_days: float = 0.0
    total_signals: int = 0
    distinct_sources: set = dataclasses.field(default_factory=set)


class SuspicionTracker:
    """Per-core decayed suspicion accumulator.

    Args:
        half_life_days: how fast old signals stop counting.  Mercurial
            cores fail "repeatedly and intermittently" (§2); decay keeps
            one-off coincidences from accumulating forever.
        source_bonus: extra weight when a *new distinct application*
            implicates the same core ("reports from multiple
            applications that appear to be concentrated on a few cores
            might well be CEEs", §6).
    """

    def __init__(self, half_life_days: float = 30.0,
                 source_bonus: float = 0.5) -> None:
        # A NaN half-life passes a bare ``<= 0`` test and turns every
        # score NaN: ``suspects()`` would then flag nothing, forever.
        if not (math.isfinite(half_life_days) and half_life_days > 0):
            raise ValueError(
                f"half_life_days must be finite and > 0, got {half_life_days}"
            )
        if not (math.isfinite(source_bonus) and source_bonus >= 0):
            raise ValueError(
                f"source_bonus must be finite and >= 0, got {source_bonus}"
            )
        self.half_life_days = half_life_days
        self.source_bonus = source_bonus
        self._cores: dict[str, _CoreState] = {}

    def _decay(self, state: _CoreState, now_days: float) -> None:
        elapsed = now_days - state.last_update_days
        if elapsed > 0:
            state.score *= 0.5 ** (elapsed / self.half_life_days)
            state.last_update_days = now_days

    def record(
        self,
        core_id: str,
        now_days: float,
        weight: float = 1.0,
        source: str | None = None,
    ) -> float:
        """Add one signal; returns the updated score."""
        state = self._cores.get(core_id)
        if state is None:
            state = self._cores[core_id] = _CoreState(last_update_days=now_days)
        self._decay(state, now_days)
        bonus = 0.0
        if source is not None and source not in state.distinct_sources:
            state.distinct_sources.add(source)
            if len(state.distinct_sources) > 1:
                bonus = self.source_bonus
        state.score += weight + bonus
        state.total_signals += 1
        return state.score

    def forget(self, core_id: str) -> None:
        """Drop a core's state (a quarantined core has left the
        fleet).  Every core's state is its own, so the others' scores
        and ranking order are untouched."""
        self._cores.pop(core_id, None)

    def score(self, core_id: str, now_days: float) -> float:
        state = self._cores.get(core_id)
        if state is None:
            return 0.0
        self._decay(state, now_days)
        return state.score

    def signals(self, core_id: str) -> int:
        state = self._cores.get(core_id)
        return state.total_signals if state else 0

    def suspects(self, now_days: float, threshold: float) -> list[tuple[str, float]]:
        """Cores at/above threshold, most suspicious first.

        Decays every tracked core to ``now_days`` (the same arithmetic
        as :meth:`score`) and thresholds it in the same pass.  Each
        pass decays every core to ``now_days``, so the next pass sees
        one ``elapsed`` for all but the cores recorded in between: the
        decay factor is recomputed only when ``elapsed`` changes from
        the previous core's.
        """
        half_life = self.half_life_days
        last_elapsed = 0.0
        factor = 1.0
        ranked = []
        for core_id, state in self._cores.items():
            elapsed = now_days - state.last_update_days
            if elapsed > 0:
                if elapsed != last_elapsed:
                    last_elapsed = elapsed
                    factor = 0.5 ** (elapsed / half_life)
                state.score *= factor
                state.last_update_days = now_days
            if state.score >= threshold:
                ranked.append((core_id, state.score))
        ranked.sort(key=lambda item: item[1], reverse=True)
        return ranked

    def tracked_cores(self) -> list[str]:
        return list(self._cores)
