"""Chaos fault injection shared by the serving and storage campaigns.

SiliFuzz-style continuous fault-finding coexists with production
traffic; this harness is the adversarial half of that bargain: a
scripted schedule of mid-campaign faults exercises every defence a
hardened configuration claims to have.  The schedule is deliberately
substrate-agnostic — the same :class:`ChaosAction` stream drives an RPC
campaign (:mod:`repro.serving.campaign`) or a replicated-storage
campaign (:mod:`repro.storage.campaign`); each driver interprets the
action kinds against its own resources.

The fault classes come straight from the paper's phenomenology:

- ``ACTIVATE_DEFECT`` — late-onset activation: CEEs "can manifest long
  after initial installation" (§1); the action ages the target core
  past its defect's onset, so a previously-clean fleet core starts
  corrupting mid-campaign.
- ``CRASH_CORE`` — the core drops out for a while (Core Surprise
  Removal analog); in-flight work sees
  :class:`~repro.silicon.errors.CoreOfflineError`, and a storage
  replica loses its memtable and must replay its write-ahead log
  (including any torn tail) on recovery.
- ``MACHINE_CHECK_BURST`` — a run of fail-noisy faults (§2's "more
  disruptive" symptom class) on one replica.
- ``TRAFFIC_BURST`` — an arrival-rate multiplier window; the load-shed
  and deadline stressor for serving, the write-pressure stressor for
  storage.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum


class ChaosKind(enum.Enum):
    """The campaign chaos vocabulary: what an injected fault does."""

    ACTIVATE_DEFECT = "activate_defect"
    CRASH_CORE = "crash_core"
    MACHINE_CHECK_BURST = "machine_check_burst"
    TRAFFIC_BURST = "traffic_burst"


@dataclasses.dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault.

    Attributes:
        at_tick: campaign tick the fault fires on.
        kind: fault class.
        core_id: target core (None for fleet-wide actions).
        magnitude: kind-specific intensity — age-days to advance for
            ``ACTIVATE_DEFECT``, arrival-rate multiplier for
            ``TRAFFIC_BURST``, forced machine checks for
            ``MACHINE_CHECK_BURST``.
        duration_ticks: how long the fault persists (crash outage /
            burst window); 0 means instantaneous.
    """

    at_tick: int
    kind: ChaosKind
    core_id: str | None = None
    magnitude: float = 1.0
    duration_ticks: int = 0


#: age (days) the E17 script advances each mercurial core to
SCALE_ONSET_AGE_DAYS = 400.0


class ChaosSchedule:
    """An ordered script of :class:`ChaosAction`."""

    def __init__(self, actions: list[ChaosAction] | None = None):
        self.actions = sorted(actions or [], key=lambda a: a.at_tick)
        self._fired = 0

    def due(self, tick: int) -> list[ChaosAction]:
        """Actions firing at or before ``tick`` not yet handed out."""
        ticks = [a.at_tick for a in self.actions]
        end = bisect.bisect_right(ticks, tick)
        due = self.actions[self._fired:end]
        self._fired = max(self._fired, end)
        return due

    @classmethod
    def standard(
        cls,
        bad_core_id: str,
        victim_core_id: str,
        ticks: int,
        onset_age_days: float = 400.0,
    ) -> "ChaosSchedule":
        """The default serving campaign script used by E15.

        A late-onset defect activates on ``bad_core_id`` a quarter of
        the way in; a healthy ``victim_core_id`` crashes and recovers;
        a machine-check burst and a traffic burst land in the second
        half.  Scales with campaign length.
        """
        return cls(
            [
                ChaosAction(
                    at_tick=ticks // 4,
                    kind=ChaosKind.ACTIVATE_DEFECT,
                    core_id=bad_core_id,
                    magnitude=onset_age_days,
                ),
                ChaosAction(
                    at_tick=ticks // 2,
                    kind=ChaosKind.CRASH_CORE,
                    core_id=victim_core_id,
                    duration_ticks=max(4, ticks // 12),
                ),
                ChaosAction(
                    at_tick=(ticks * 5) // 8,
                    kind=ChaosKind.MACHINE_CHECK_BURST,
                    core_id=victim_core_id,
                    magnitude=4.0,
                ),
                ChaosAction(
                    at_tick=(ticks * 3) // 4,
                    kind=ChaosKind.TRAFFIC_BURST,
                    magnitude=3.0,
                    duration_ticks=max(6, ticks // 10),
                ),
            ]
        )

    @classmethod
    def serve_scale(
        cls,
        bad_core_ids: list[str],
        shard_core_ids: list[str],
        storm_core_ids: list[str],
        ticks: int,
    ) -> "ChaosSchedule":
        """The E17 serve-at-scale script: shard loss + breaker storm.

        Every mercurial core's late-onset defect activates a quarter of
        the way in (staggered by a few ticks so trips don't all land on
        one tick).  At the halfway mark an entire shard's cores crash
        at once (shard loss — the cluster must absorb the capacity hole
        or degrade gracefully); at 5/8 a machine-check storm hammers
        several healthy cores in quick succession (a breaker storm: many
        boards trip close together, which is what drives the
        degradation ladder); and a 3× traffic burst lands in the final
        quarter on top of whatever capacity is left.
        """
        actions = [
            ChaosAction(
                at_tick=ticks // 4 + 3 * index,
                kind=ChaosKind.ACTIVATE_DEFECT,
                core_id=core_id,
                magnitude=SCALE_ONSET_AGE_DAYS,
            )
            for index, core_id in enumerate(bad_core_ids)
        ]
        actions += [
            ChaosAction(
                at_tick=ticks // 2,
                kind=ChaosKind.CRASH_CORE,
                core_id=core_id,
                duration_ticks=max(6, ticks // 10),
            )
            for core_id in shard_core_ids
        ]
        actions += [
            ChaosAction(
                at_tick=(ticks * 5) // 8 + index,
                kind=ChaosKind.MACHINE_CHECK_BURST,
                core_id=core_id,
                magnitude=4.0,
            )
            for index, core_id in enumerate(storm_core_ids)
        ]
        actions.append(
            ChaosAction(
                at_tick=(ticks * 3) // 4,
                kind=ChaosKind.TRAFFIC_BURST,
                magnitude=3.0,
                duration_ticks=max(8, ticks // 8),
            )
        )
        return cls(actions)

    @classmethod
    def storage_standard(
        cls,
        bad_core_id: str,
        victim_core_id: str,
        ticks: int,
        onset_age_days: float = 400.0,
    ) -> "ChaosSchedule":
        """The default durable-path campaign script used by E16.

        The late-onset defect activates on ``bad_core_id`` a quarter of
        the way in, then that replica *crashes* shortly after — so its
        recovery must replay a write-ahead log that now contains
        corrupt records and a torn tail.  A healthy ``victim_core_id``
        replica crashes mid-campaign and eats a machine-check burst,
        and a write burst lands in the final quarter.
        """
        return cls(
            [
                ChaosAction(
                    at_tick=ticks // 4,
                    kind=ChaosKind.ACTIVATE_DEFECT,
                    core_id=bad_core_id,
                    magnitude=onset_age_days,
                ),
                ChaosAction(
                    at_tick=ticks // 4 + max(4, ticks // 16),
                    kind=ChaosKind.CRASH_CORE,
                    core_id=bad_core_id,
                    duration_ticks=max(3, ticks // 20),
                ),
                ChaosAction(
                    at_tick=ticks // 2,
                    kind=ChaosKind.CRASH_CORE,
                    core_id=victim_core_id,
                    duration_ticks=max(4, ticks // 12),
                ),
                ChaosAction(
                    at_tick=(ticks * 5) // 8,
                    kind=ChaosKind.MACHINE_CHECK_BURST,
                    core_id=victim_core_id,
                    magnitude=4.0,
                ),
                ChaosAction(
                    at_tick=(ticks * 3) // 4,
                    kind=ChaosKind.TRAFFIC_BURST,
                    magnitude=3.0,
                    duration_ticks=max(6, ticks // 10),
                ),
            ]
        )


__all__ = ["ChaosAction", "ChaosKind", "ChaosSchedule"]
