"""The fleet tick, one core and one draw at a time: the readable reference.

:class:`~repro.fleet.simulator.FleetSimulator` draws a tick's counts
channel by channel across the active mercurial population, each
channel's attribution as one array, and recomputes its mercurial
bookkeeping only on wake ticks.  :class:`ScalarReferenceSimulator` is
the same campaign written the way the model is described — for each bad core:
how many corruptions today, how many surface on each channel, who gets
blamed — drawing from the RNG once per decision.  It overrides only
:meth:`_tick`; the fleet state (``_merc_*`` columns), the detection
stack, policy, triage and ``run()`` are the base class's.  It ages
every online core on every tick itself and never wakes, so the base
class's lazy-age settling leaves its ages alone.

The two ticks consume the RNG stream in different orders, so equal
seeds give different event realizations of the same distribution.
``tests/test_fleet_reference.py`` holds the production tick against
this one with a two-sample test; nothing else imports it.
"""

from __future__ import annotations

import math

from repro.core.events import EventKind, Reporter
from repro.core.report import Complaint
from repro.fleet.simulator import (
    MAX_SURFACED_PER_CHANNEL_PER_DAY,
    OFFLINE_ENV_BOOST,
    OFFLINE_SCREEN_PERIOD_DAYS,
    ONLINE_SCREEN_PERIOD_DAYS,
    P_ATTRIBUTE_CRASH,
    P_ATTRIBUTE_MCE,
    P_ATTRIBUTE_SELFCHECK,
    P_ATTRIBUTE_USER,
    FleetSimulator,
)


class ScalarReferenceSimulator(FleetSimulator):
    """:class:`FleetSimulator` with the per-core, per-draw tick."""

    def _tick(self, now: float, tick: float) -> None:
        active = self._age_cores(now)
        for index in active:
            self._emit_incidents(index, now, tick)
        self._emit_background(now, tick)
        self._run_screening(active, now, tick)

    def _age_cores(self, now: float) -> list[int]:
        """Advance every online mercurial core to fleet time; return the
        ones whose defects are past onset, rates refreshed at today's
        age (the production tick lets them go a week stale)."""
        online = self.columns.online
        active: list[int] = []
        for index in range(self._n_mercurial):
            if not online[self._merc_flat[index]]:
                continue
            age = float(self._merc_age[index])
            machine_age = max(0.0, now - float(self._merc_deploy[index]))
            if age < machine_age:
                age += machine_age - age
                self._merc_age[index] = age
            if age < self._merc_onset[index]:
                continue
            self._refresh_rate(index, age)
            active.append(index)
        return active

    def _emit_incidents(self, index: int, now: float, tick: float) -> None:
        cfg = self.config
        machine_id = self._merc_machine_id[index]
        core_id = self._merc_core_id[index]
        silent_rate = float(self._merc_silent[index])
        mce_rate = float(self._merc_mce[index])
        exposed = cfg.exposed_ops_per_day * tick
        n_corruptions = int(self.rng.poisson(silent_rate * exposed))
        n_mce = int(self.rng.poisson(mce_rate * exposed))
        self.total_corruptions += n_corruptions
        cap = max(1, int(MAX_SURFACED_PER_CHANNEL_PER_DAY * tick))
        n_mce = min(n_mce, cap)

        for _ in range(n_mce):
            attributed = self.rng.random() < P_ATTRIBUTE_MCE
            self._emit(
                time_days=now, machine_id=machine_id,
                core_id=core_id if attributed else None,
                kind=EventKind.MACHINE_CHECK, reporter=Reporter.AUTOMATED,
                detail="mce",
            )

        if n_corruptions == 0:
            return
        surfaced_selfcheck = min(
            int(self.rng.binomial(n_corruptions, cfg.p_selfcheck_surface)), cap
        )
        surfaced_crash = min(
            int(self.rng.binomial(n_corruptions, cfg.p_crash_surface)), cap
        )
        surfaced_user = min(
            int(self.rng.binomial(n_corruptions, cfg.p_user_surface)), cap
        )
        self.app_visible += surfaced_selfcheck

        for _ in range(surfaced_selfcheck):
            attributed = self.rng.random() < P_ATTRIBUTE_SELFCHECK
            if attributed:
                self._complain(
                    Complaint(
                        time_days=now,
                        application=f"app{int(self.rng.integers(8))}",
                        machine_id=machine_id,
                        core_id=core_id,
                        detail="self-check failure",
                    )
                )
            else:
                self._emit(
                    time_days=now, machine_id=machine_id, core_id=None,
                    kind=EventKind.SELF_CHECK_FAILURE,
                    reporter=Reporter.AUTOMATED, detail="self-check failure",
                )
        for _ in range(surfaced_crash):
            attributed = self.rng.random() < P_ATTRIBUTE_CRASH
            self._emit(
                time_days=now, machine_id=machine_id,
                core_id=core_id if attributed else None,
                kind=EventKind.CRASH, reporter=Reporter.AUTOMATED,
                detail="process crash",
            )
        for _ in range(surfaced_user):
            attributed = self.rng.random() < P_ATTRIBUTE_USER
            self._emit(
                time_days=now, machine_id=machine_id,
                core_id=core_id if attributed else None,
                kind=EventKind.USER_REPORT, reporter=Reporter.HUMAN,
                detail="production incident",
            )

    def _emit_background(self, now: float, tick: float) -> None:
        """Plain software bugs and misfiled user suspicion."""
        cfg = self.config
        columns = self.columns
        n_machines = self.n_machines
        n_crash = int(self.rng.poisson(cfg.bg_crash_rate * n_machines * tick))
        for _ in range(n_crash):
            machine_index = int(self.rng.integers(n_machines))
            self._emit(
                time_days=now, machine_id=self._machine_ids[machine_index],
                core_id=None, kind=EventKind.CRASH,
                reporter=Reporter.AUTOMATED, detail="software bug",
            )
        n_user = int(self.rng.poisson(cfg.bg_user_rate * n_machines * tick))
        for _ in range(n_user):
            machine_index = int(self.rng.integers(n_machines))
            # Humans sometimes (wrongly) finger a specific healthy core.
            start, stop = columns.machine_core_range(machine_index)
            core_id = columns.core_id(
                start + int(self.rng.integers(stop - start))
            )
            attributed = self.rng.random() < P_ATTRIBUTE_USER
            self._emit(
                time_days=now, machine_id=self._machine_ids[machine_index],
                core_id=core_id if attributed else None,
                kind=EventKind.USER_REPORT, reporter=Reporter.HUMAN,
                detail="suspected bad machine",
            )

    def _run_screening(
        self, active: list[int], now: float, tick: float
    ) -> None:
        """Statistical screening pass.

        Healthy cores always pass, so their screening contributes only
        cost — accounted in bulk.  Each mercurial core is "due" with
        probability tick/period per tick (the round-robin cadence in
        expectation), and confesses with the analytic detection
        probability for the corpus effort at the relevant conditions.
        """
        cfg = self.config
        coverage = self._coverage(now)
        self.screening_ops += (
            self.n_cores * tick / ONLINE_SCREEN_PERIOD_DAYS
            * cfg.online_corpus_ops
        )
        self.screening_ops += (
            self.n_cores * tick / OFFLINE_SCREEN_PERIOD_DAYS
            * cfg.offline_corpus_ops
        )
        schedules = (
            (ONLINE_SCREEN_PERIOD_DAYS, cfg.online_corpus_ops,
             1.0, "online screen"),
            (OFFLINE_SCREEN_PERIOD_DAYS, cfg.offline_corpus_ops,
             OFFLINE_ENV_BOOST, "offline screen"),
        )
        for index in active:
            total_rate = float(self._merc_silent[index]) + float(
                self._merc_mce[index]
            )
            for period, corpus_ops, env_boost, label in schedules:
                if self.rng.random() >= tick / period:
                    continue
                rate = total_rate * env_boost * coverage
                if self.rng.random() < 1.0 - math.exp(-rate * corpus_ops):
                    self._emit(
                        time_days=now,
                        machine_id=self._merc_machine_id[index],
                        core_id=self._merc_core_id[index],
                        kind=EventKind.SCREEN_FAIL,
                        reporter=Reporter.AUTOMATED, detail=label,
                    )
