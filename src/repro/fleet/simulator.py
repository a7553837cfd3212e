"""The fleet simulator: months of fleet time, analytically.

Executing every operation of a 10k-machine fleet is impossible in any
simulator; the paper's own observations are *rates* (Fig. 1 plots
normalized incident rates per machine over time).  The simulator
therefore runs the defect models in their analytic form: every active
mercurial core has a per-day corruption rate under the production
operation mix (:func:`repro.workloads.generator.blended_op_mix`), and
the simulator samples Poisson incident counts per surfacing channel —
application self-checks, crashes, machine checks, user-visible
incidents — per tick.  Everything downstream of the events (suspicion,
policy, triage, quarantine) is the *actual* detection stack from
:mod:`repro.core` and :mod:`repro.detection`, not a model of it.

The automated-detection series rises over the campaign for two reasons,
both from the paper: late-onset defects keep activating (§2 "these can
manifest long after initial installation"), and the test corpus gains
coverage "a few times per year" as new CEE classes are root-caused
(§6), modeled as stepwise coverage expansions.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro import obs
from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind, EventLog, Reporter
from repro.core.policy import Action, PolicyConfig, QuarantinePolicy
from repro.core.report import Complaint, CoreComplaintService
from repro.core.triage import HumanTriageModel, TriageOutcome
from repro.detection.signals import SignalAnalyzer  # allowlisted in tests/test_invariants.py
from repro.fleet.columns import FleetColumns
from repro.fleet.population import FleetGroundTruth
from repro.silicon.defects import MachineCheckDefect
from repro.silicon.environment import NOMINAL
from repro.silicon.golden import golden_cache_enabled
from repro.workloads.generator import blended_op_mix  # allowlisted in tests/test_invariants.py


#: simulated days per tick
TICK_DAYS = 1.0
# attribution: which surfaced events carry a core id
P_ATTRIBUTE_SELFCHECK = 0.9
P_ATTRIBUTE_CRASH = 0.35
P_ATTRIBUTE_MCE = 0.9
P_ATTRIBUTE_USER = 0.5
#: cap on surfaced events per core per channel per day — a core
#: corrupting millions of ops/day takes its machine out of
#: service long before millions of tickets get filed
MAX_SURFACED_PER_CHANNEL_PER_DAY = 12
# screening cadence, and the offline screen's out-of-envelope stress
ONLINE_SCREEN_PERIOD_DAYS = 7.0
OFFLINE_SCREEN_PERIOD_DAYS = 90.0
OFFLINE_ENV_BOOST = 6.0
# §6: corpus coverage expands "a few times per year"
COVERAGE_INITIAL = 0.30
COVERAGE_STEP = 0.10
COVERAGE_EXPANSIONS_PER_YEAR = 3.0
#: confession runs per policy RETEST decision
CONFESSION_ATTEMPTS = 3
#: suspicion score at which the policy step considers a core
SUSPICION_RETEST_THRESHOLD = 2.0
#: how stale a cached (silent, mce) rate split may get before the
#: tick recomputes it from the defect models.  Defect aging curves
#: move on week scales, so 7 days loses nothing.
RATE_REFRESH_DAYS = 7.0
#: a wake tick is scheduled this far ahead of the crossing it waits
#: for, relative to the magnitudes in the crossing's test: the tick
#: tests ``now - deploy`` while the schedule adds ``threshold + deploy``,
#: and the two round differently by a few ulps at most
WAKE_SLACK = 1e-9


@dataclasses.dataclass
class SimulatorConfig:
    """Calibration knobs; defaults land in the paper's bands."""

    horizon_days: float = 365.0
    #: steady-state lead-in simulated before t=0; events in the warmup
    #: are processed (suspicion, quarantine) but excluded from the
    #: reported [0, horizon) timelines, so Fig. 1 shows a managed
    #: fleet, not the first-ever screening sweep of an unmanaged one
    warmup_days: float = 180.0
    #: effective operations/day per core counted against defect rates
    exposed_ops_per_day: float = 2e7
    # surfacing probabilities per silent corruption
    p_selfcheck_surface: float = 2e-3
    p_crash_surface: float = 6e-4
    p_user_surface: float = 6e-4
    # background noise from plain software bugs, per machine-day
    bg_crash_rate: float = 8e-3
    bg_user_rate: float = 2e-5
    # screening and confession effort
    online_corpus_ops: float = 2e5
    offline_corpus_ops: float = 2e6
    confession_corpus_ops: float = 2e6
    policy: PolicyConfig = dataclasses.field(default_factory=PolicyConfig)

    def __post_init__(self) -> None:
        # A bad value fails no draw by itself: a NaN horizon ends the
        # loop before it starts, a NaN corpus size makes the screening
        # total NaN, a negative one makes screens never confess.
        for field in dataclasses.fields(self):
            if field.name == "policy":
                continue
            name, value = field.name, getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}"
                )
            if name.startswith("p_") and value > 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclasses.dataclass
class SimulationResult:
    """Everything an experiment needs from one campaign."""

    config: SimulatorConfig
    events: EventLog
    truth: FleetGroundTruth
    n_machines: int
    n_cores: int
    quarantined_cores: set[str]
    quarantine_day: dict[str, float]
    detection_latency_days: dict[str, float]
    triage: HumanTriageModel
    total_corruptions: int
    app_visible_corruptions: int
    screening_ops_spent: float

    def flagged(self) -> set[str]:
        return set(self.quarantined_cores)

    #: event kinds that count as a *CEE incident report* (Fig. 1's
    #: y-axis counts suspected-CEE reports, not every crash in the
    #: fleet — background software-bug crashes are excluded because
    #: they are never filed as CEE incidents)
    AUTO_REPORT_KINDS = frozenset(
        {
            EventKind.APP_REPORT,
            EventKind.SCREEN_FAIL,
            EventKind.MACHINE_CHECK,
            EventKind.SELF_CHECK_FAILURE,
            EventKind.SANITIZER,
        }
    )

    def cee_report_series(
        self, reporter: Reporter, bucket_days: float = 30.0
    ) -> list[tuple[float, float]]:
        """Fig. 1's series proper: CEE incident reports per machine-day."""
        kinds = (
            self.AUTO_REPORT_KINDS
            if reporter is Reporter.AUTOMATED
            else {EventKind.USER_REPORT}
        )
        return self.events.rate_timeline(
            bucket_days=bucket_days,
            horizon_days=self.config.horizon_days,
            reporter=reporter,
            machines=self.n_machines,
            kinds=kinds,
        )


class FleetSimulator:
    """Drives a fleet through a detection campaign.

    The simulator runs on :class:`~repro.fleet.columns.FleetColumns`,
    and its ground truth is the columns' own.  It mutates them in place
    (``online``, ``merc_age``), so a caller that keeps the fleet hands
    it ``columns.thaw()``; read-only columns fail on the first write.

    :meth:`_tick` pays only for the mercurial state that changed: the
    online/active masks, the stale-rate refresh and the active set are
    recomputed on a wake tick (:meth:`_wake`), ages are settled lazily,
    and the channel counts are scalar draws that skip what consumes
    nothing.  The golden-cache switch off selects the every-tick form
    (a wake every tick, each channel one array call), which the tests
    hold the fast one against bit for bit.  The per-core form of the
    same model — one draw at a time, in a different stream order,
    readable top to bottom — is
    :class:`repro.fleet.reference.ScalarReferenceSimulator`, which
    overrides only :meth:`_tick`.
    """

    def __init__(
        self,
        fleet: FleetColumns,
        config: SimulatorConfig | None = None,
        seed: int = 0,
    ):
        self.config = config or SimulatorConfig()
        columns = self.columns = fleet
        self.truth = columns.ground_truth()
        self.n_machines = columns.n_machines
        self.n_cores = columns.n_cores
        self.rng = np.random.default_rng(seed)
        self.events = EventLog()
        self.production_mix = blended_op_mix()

        n_cores = self.n_cores
        # Unattributed events never reach the analyzer (it would drop
        # them): spreading one over a machine's cores would add a
        # negligible weight for 16-64 cores at O(cores) per event.
        self.analyzer = SignalAnalyzer(tracker=SuspicionTracker())
        self.complaints = CoreComplaintService(
            n_cores_visible=n_cores, event_log=self.events
        )
        self.policy = QuarantinePolicy(self.config.policy, fleet_cores=n_cores)
        self.triage = HumanTriageModel(np.random.default_rng(seed + 1))

        self.total_corruptions = 0
        self.app_visible = 0
        self.screening_ops = 0.0
        self.quarantine_day: dict[str, float] = {}
        self.detection_latency: dict[str, float] = {}
        # The current tick's attributed USER_REPORT events, in append
        # order (triage's draw order): collected where they are built,
        # they are a handful among the tick's ~100 events.
        self._user_reports: list[CeeEvent] = []
        # The current tick's attributed events in log order: what the
        # analyzer ingests (it has no machine map, so an unattributed
        # event has nowhere to land).
        self._attributed: list[CeeEvent] = []

        self._m_ticks = obs.metrics.counter(
            "fleet_ticks_total", help="simulator ticks run", unit="ticks",
        )
        self._m_events = obs.metrics.counter(
            "fleet_events_total",
            help="CeeEvents appended by the simulator", unit="events",
        )
        self._m_quarantines = obs.metrics.counter(
            "fleet_quarantines_total",
            help="cores taken offline by the fleet policy, by ground "
                 "truth of the victim",
            unit="cores",
        )
        self._h_latency = obs.metrics.histogram(
            "fleet_detection_latency_days",
            help="defect onset to quarantine, truly mercurial cores",
            unit="days",
            buckets=(1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 240.0, 480.0),
        )

        # Per-mercurial-core state, dense over the (tiny) mercurial
        # population.  Onset is a pure age threshold (min across the
        # core's defects), so activity and aging never need a per-core
        # Python trip; the (silent, mce) rate splits are cached,
        # refreshed on defect onset and then at most every
        # ``RATE_REFRESH_DAYS`` of core age.
        n_mercurial = columns.n_mercurial
        self._machine_ids = columns.machine_id_list()
        merc_flat = np.asarray(columns.merc_core, dtype=np.int64)
        self._merc_flat = merc_flat
        self._merc_machine_index = columns.core_machine[merc_flat].astype(
            np.int64
        )
        self._merc_onset = columns.merc_onset.astype(np.float64, copy=True)
        self._merc_deploy = columns.machine_deploy_day[
            self._merc_machine_index
        ].astype(np.float64)
        self._merc_age = columns.merc_age.astype(np.float64, copy=True)
        # The age each core's cached rates were last computed at.
        # Triage activity checks and confession rates read this one, not
        # the per-tick ``_merc_age``: what the fleet service knows about
        # a core is as old as its last rate refresh.
        self._merc_synced_age = self._merc_age.copy()
        # Per core, per defect: (fails noisily?, defect, the age-free
        # half of its mean_rate under the production mix; every
        # generated core runs at NOMINAL).  Defects never change, so a
        # refresh pays only the age step.
        self._merc_rate_plans = [
            [
                (
                    isinstance(defect, MachineCheckDefect),
                    defect,
                    defect.rate_plan(self.production_mix, NOMINAL),
                )
                for defect in columns.merc_defects(i)
            ]
            for i in range(n_mercurial)
        ]
        self._merc_machine_id = [
            self._machine_ids[int(m)] for m in self._merc_machine_index
        ]
        self._merc_core_id = [
            columns.core_id(int(flat)) for flat in merc_flat.tolist()
        ]
        self._merc_index_by_flat = {
            int(flat): index for index, flat in enumerate(merc_flat.tolist())
        }
        self._n_mercurial = n_mercurial
        self._merc_silent = np.zeros(n_mercurial)
        self._merc_mce = np.zeros(n_mercurial)
        self._merc_rate_age = np.full(n_mercurial, -np.inf)
        # Lazy ages.  A live core was online at the last wake, which
        # wrote its age then; its age at fleet time ``now`` is
        # ``max(_merc_age, now - deploy, 0)``: ``now - deploy`` only
        # grows and ``max`` does not round, so that is the per-tick
        # chain's value, taken when it is needed.  A quarantine settles
        # the core's age and the end of ``run()`` settles the rest.  The
        # per-core reference tick never wakes, so it keeps no live core
        # and ages its own.
        self._merc_live = np.zeros(n_mercurial, dtype=bool)
        # The next tick that must wake (see _wake), and the active set
        # as of the last one: merc indices, and their cached rates.
        self._wake_at = -math.inf
        self._active: list[int] = []
        self._active_idx = np.empty(0, dtype=np.int64)
        self._active_silent = np.empty(0)
        self._active_mce = np.empty(0)
        self._active_rate = np.empty(0)

    def _coverage(self, now_days: float) -> float:
        """Automated corpus coverage: stepwise expansion (§6)."""
        elapsed = now_days + self.config.warmup_days
        steps = max(
            0, math.floor(elapsed / 365.0 * COVERAGE_EXPANSIONS_PER_YEAR)
        )
        return min(1.0, COVERAGE_INITIAL + steps * COVERAGE_STEP)

    # -- event emission ---------------------------------------------------

    def _emit(self, **kwargs) -> None:
        """Append one event (the policy step's and the scalar
        reference tick's path), queueing it for the analyzer if it is
        attributed and for triage if it is an attributed user report."""
        event = CeeEvent(**kwargs)
        self.events.append(event)
        if event.core_id is not None:
            self._attributed.append(event)
            if event.kind is EventKind.USER_REPORT:
                self._user_reports.append(event)

    def _complain(self, complaint: Complaint) -> None:
        """File a complaint; the service logs it as an attributed
        ``APP_REPORT``, which the analyzer ingests with the tick."""
        event = self.complaints.report(complaint)
        if event is not None:
            self._attributed.append(event)

    def _log_records(self, records: list[CeeEvent]) -> None:
        """Append a batched tick's records, queueing the attributed
        ones for the analyzer."""
        self.events.extend(records)
        self._attributed.extend([e for e in records if e.core_id is not None])

    # -- policy + triage ----------------------------------------------------

    def _confession_probability_cached(
        self, merc_index: int, now: float
    ) -> float:
        """Chance one offline confession run catches this core, from
        its cached (silent, mce) split — i.e. at its last-refreshed
        age, see ``_merc_synced_age``."""
        cfg = self.config
        silent_rate = float(self._merc_silent[merc_index])
        mce_rate = float(self._merc_mce[merc_index])
        rate = (
            (silent_rate + mce_rate)
            * OFFLINE_ENV_BOOST
            * self._coverage(now)
        )
        return 1.0 - math.exp(-rate * cfg.confession_corpus_ops)

    def _quarantine(self, core_id: str, now: float) -> None:
        if core_id in self.quarantine_day:
            return
        flat = self.columns.core_index(core_id)
        if flat is None:
            return
        self.columns.online[flat] = False
        is_mercurial = bool(self.columns.mercurial[flat])
        if is_mercurial:
            self._settle_age(self._merc_index_by_flat[flat], now)
        # The online mask moved: the next tick recomputes the active set.
        self._wake_at = -math.inf
        self.quarantine_day[core_id] = now
        # Offline for good: nothing the tracker holds on it can act.
        self.analyzer.tracker.forget(core_id)
        self._m_quarantines.inc(mercurial="yes" if is_mercurial else "no")
        if is_mercurial:
            onset = self.truth.onset_days_by_core.get(core_id, 0.0)
            self.detection_latency[core_id] = max(0.0, now - onset)
            self._h_latency.observe(self.detection_latency[core_id])

    def _apply_policy(self, now: float) -> None:
        columns = self.columns
        suspects = self.analyzer.suspects(
            now, threshold=SUSPICION_RETEST_THRESHOLD
        )
        for core_id, score in suspects:
            flat = columns.core_index(core_id)
            if flat is None or not columns.online[flat]:
                continue
            is_mercurial = bool(columns.mercurial[flat])
            machine_id = self._machine_ids[int(columns.core_machine[flat])]
            confessed = False
            decision = self.policy.decide(core_id, score, confessed=False)
            if decision.action is Action.RETEST:
                # Run confession testing (offline, stress conditions).
                if not is_mercurial:
                    p = 0.0
                else:
                    p = self._confession_probability_cached(
                        self._merc_index_by_flat[flat], now
                    )
                for _ in range(CONFESSION_ATTEMPTS):
                    self.screening_ops += self.config.confession_corpus_ops
                    if self.rng.random() < p:
                        confessed = True
                        break
                if confessed:
                    self._emit(
                        time_days=now,
                        machine_id=machine_id,
                        core_id=core_id, kind=EventKind.SCREEN_FAIL,
                        reporter=Reporter.AUTOMATED, detail="confession",
                    )
                    decision = self.policy.decide(core_id, score, confessed=True)
            if decision.action in (Action.QUARANTINE_CORE, Action.QUARANTINE_MACHINE):
                self._quarantine(core_id, now)
                if decision.action is Action.QUARANTINE_MACHINE:
                    start, stop = columns.machine_core_range(
                        int(columns.core_machine[flat])
                    )
                    for sibling_flat in range(start, stop):
                        self._quarantine(columns.core_id(sibling_flat), now)

    def _is_cee_core(self, core_id: str) -> bool:
        """Is this core mercurial *and* past a defect's onset?  Judged
        at the last-refreshed age (``_merc_synced_age``), not the
        tick's."""
        flat = self.columns.core_index(core_id)
        if flat is None or flat not in self._merc_index_by_flat:
            return False
        merc_index = self._merc_index_by_flat[flat]
        return bool(
            self._merc_synced_age[merc_index] >= self._merc_onset[merc_index]
        )

    def _run_triage(self, now: float, reports: list[CeeEvent]) -> None:
        """Human side: user reports that name a core spawn
        investigations (§6).  ``reports`` is the tick's attributed
        ``USER_REPORT`` events in append order."""
        columns = self.columns
        for event in reports:
            if event.core_id in self.quarantine_day:
                # A misfiled background report can name an offline
                # core; the tick's ingest recorded it, so drop it again.
                self.analyzer.tracker.forget(event.core_id)
            is_cee = self._is_cee_core(event.core_id)
            if not self.triage.files_suspect(incident_is_cee=is_cee):
                continue
            suspect_id = event.core_id
            if is_cee and not self.triage.attributed_core_is_right():
                # The human fingered a sibling core on the same machine.
                flat = columns.core_index(event.core_id)
                assert flat is not None
                start, stop = columns.machine_core_range(
                    int(columns.core_machine[flat])
                )
                healthy = [
                    columns.core_id(sibling_flat)
                    for sibling_flat in range(start, stop)
                    if not columns.mercurial[sibling_flat]
                ]
                if healthy:
                    suspect_id = healthy[
                        int(self.triage.rng.integers(len(healthy)))
                    ]
            investigation = self.triage.investigate(
                core_id=suspect_id,
                core_is_mercurial=self._is_cee_core(suspect_id),
                started_days=now,
            )
            if investigation.outcome is TriageOutcome.CONFIRMED:
                # Straight to quarantine, which drops the core from the
                # tracker: a human-triage signal recorded first would
                # be forgotten unread.
                self._quarantine(suspect_id, now)

    # -- main loop --------------------------------------------------------------

    def _refresh_rate(self, index: int, age_days: float) -> None:
        """Recompute one mercurial core's cached per-op rates — silent
        corruption and machine check — at ``age_days``."""
        self._merc_synced_age[index] = age_days
        silent = 0.0
        mce = 0.0
        for noisy, defect, plan in self._merc_rate_plans[index]:
            rate = defect.rate_at_age(plan, age_days)
            if noisy:
                mce += rate
            else:
                silent += rate
        self._merc_silent[index] = silent
        self._merc_mce[index] = mce
        self._merc_rate_age[index] = age_days

    def _settle_age(self, index: int, now: float) -> None:
        """Write a live core's age at ``now`` and stop aging it lazily:
        the core is leaving service, and an offline core does not age."""
        if self._merc_live[index]:
            self._merc_live[index] = False
            target = max(now - self._merc_deploy[index], 0.0)
            self._merc_age[index] = max(self._merc_age[index], target)

    def _wake(self, now: float) -> None:
        """Recompute the mercurial bookkeeping at ``now``: the online
        and active masks, the stale-rate refreshes, the active set's
        cached rates, and the next tick that must wake.

        Between wakes none of it can change.  A pending core passes
        onset at the earliest when ``now - deploy >= onset``, and an
        active core's rates go stale at the earliest when ``now -
        deploy >= rate_age + RATE_REFRESH_DAYS``; the next wake is the
        earliest of those fleet times, less :data:`WAKE_SLACK`.  A
        quarantine moves the online mask, so it wakes the next tick.
        """
        online = self.columns.online[self._merc_flat]
        self._merc_live = online
        deploy = self._merc_deploy
        ages = self._merc_age = np.where(
            online,
            np.maximum(self._merc_age, np.maximum(now - deploy, 0.0)),
            self._merc_age,
        )
        active_mask = online & (ages >= self._merc_onset)
        # A never-refreshed core's rate age is -inf: its gap is +inf.
        stale = active_mask & (ages - self._merc_rate_age >= RATE_REFRESH_DAYS)
        for index in np.nonzero(stale)[0].tolist():
            self._refresh_rate(index, float(ages[index]))
        idx = np.nonzero(active_mask)[0]
        self._active = idx.tolist()
        self._active_idx = idx
        self._active_silent = self._merc_silent[idx]
        self._active_mce = self._merc_mce[idx]
        self._active_rate = self._active_silent + self._active_mce

        threshold = np.where(
            active_mask, self._merc_rate_age + RATE_REFRESH_DAYS,
            self._merc_onset,
        )
        with np.errstate(invalid="ignore"):
            wake = threshold + deploy - WAKE_SLACK * (
                1.0 + np.abs(threshold) + np.abs(deploy)
            )
        # An infinite onset is never reached; its slack made it NaN.
        self._wake_at = float(
            np.min(wake, initial=math.inf, where=online & ~np.isnan(wake))
        )

    def _channel_counts(
        self, exposed: float, cap: int, every_tick: bool
    ) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """The active cores' corruption, machine-check, and surfaced
        self-check, crash and user counts, drawn channel-major: every
        core's corruption Poisson, then every core's machine-check
        Poisson, then each surfacing binomial in turn.

        The fast form draws one scalar per core and skips a draw that
        consumes nothing (a Poisson of 0, a binomial of 0 trials); the
        every-tick form draws each channel as one array call.  Scalar
        draws in array order give the array's values and leave the
        generator in the array call's state.
        """
        rng = self.rng
        cfg = self.config
        surfacing = (
            cfg.p_selfcheck_surface, cfg.p_crash_surface, cfg.p_user_surface,
        )
        if every_tick:
            drawn = rng.poisson(self._active_silent * exposed)
            mce = np.minimum(rng.poisson(self._active_mce * exposed), cap)
            selfcheck, crash, user = (
                np.minimum(rng.binomial(drawn, p), cap).tolist()
                for p in surfacing
            )
            return drawn.tolist(), mce.tolist(), selfcheck, crash, user
        poisson, binomial = rng.poisson, rng.binomial
        lams = (self._active_silent * exposed).tolist()
        corruptions = [poisson(lam) if lam else 0 for lam in lams]
        lams = (self._active_mce * exposed).tolist()
        machine_checks = [min(poisson(lam), cap) if lam else 0 for lam in lams]
        selfcheck, crash, user = (
            [min(binomial(n, p), cap) if n else 0 for n in corruptions]
            for p in surfacing
        )
        return corruptions, machine_checks, selfcheck, crash, user

    def _tick(self, now: float, tick: float) -> None:
        """One tick: the mercurial channels, background noise, screens.

        The mercurial bookkeeping wakes only when due (:meth:`_wake`),
        the channel counts come from :meth:`_channel_counts`, the
        attribution draws are one array call per channel, and events
        are built positionally and appended with ``extend``; the
        background crashes are one :meth:`EventLog.append_batch` entry.
        With the golden-cache switch off the tick wakes every time and
        draws each channel as one array call: the same values and the
        same stream, the slow way.
        """
        cfg = self.config
        rng = self.rng
        columns = self.columns
        events: list[CeeEvent] = []
        append = events.append
        user_reports = self._user_reports
        # Enum members as locals: a class-attribute lookup per record
        # is a third of a background-crash record's cost.
        automated, human = Reporter.AUTOMATED, Reporter.HUMAN
        machine_check = EventKind.MACHINE_CHECK
        self_check_failure = EventKind.SELF_CHECK_FAILURE
        crash, user_report = EventKind.CRASH, EventKind.USER_REPORT
        screen_fail = EventKind.SCREEN_FAIL

        every_tick = not golden_cache_enabled()
        if self._n_mercurial and (every_tick or now >= self._wake_at):
            self._wake(now)
        active = self._active

        cap = max(1, int(MAX_SURFACED_PER_CHANNEL_PER_DAY * tick))
        if active:
            (
                n_corruptions, n_mce, surfaced_selfcheck, surfaced_crash,
                surfaced_user,
            ) = self._channel_counts(
                cfg.exposed_ops_per_day * tick, cap, every_tick
            )
            self.total_corruptions += sum(n_corruptions)
            self.app_visible += sum(surfaced_selfcheck)

            def channel_attribution(counts: list[int], p: float) -> np.ndarray:
                total = sum(counts)
                return rng.random(total) < p if total else np.empty(0, bool)

            machine_of = self._merc_machine_id
            core_of = self._merc_core_id
            mce_attr = channel_attribution(n_mce, P_ATTRIBUTE_MCE)
            cursor = 0
            for j, count in zip(active, n_mce):
                if not count:
                    continue
                for _ in range(count):
                    append(CeeEvent(
                        now, machine_of[j],
                        core_of[j] if mce_attr[cursor] else None,
                        machine_check, automated,
                        None, "mce",
                    ))
                    cursor += 1

            selfcheck_attr = channel_attribution(
                surfaced_selfcheck, P_ATTRIBUTE_SELFCHECK
            )
            n_apps = int(selfcheck_attr.sum())
            app_ids = rng.integers(8, size=n_apps).tolist() if n_apps else []
            cursor = 0
            drawn_apps = 0
            for j, count in zip(active, surfaced_selfcheck):
                if not count:
                    continue
                for _ in range(count):
                    if selfcheck_attr[cursor]:
                        self._complain(
                            Complaint(
                                time_days=now,
                                application=f"app{app_ids[drawn_apps]}",
                                machine_id=machine_of[j],
                                core_id=core_of[j],
                                detail="self-check failure",
                            )
                        )
                        drawn_apps += 1
                    else:
                        append(CeeEvent(
                            now, machine_of[j], None,
                            self_check_failure, automated,
                            None, "self-check failure",
                        ))
                    cursor += 1

            crash_attr = channel_attribution(
                surfaced_crash, P_ATTRIBUTE_CRASH
            )
            cursor = 0
            for j, count in zip(active, surfaced_crash):
                if not count:
                    continue
                for _ in range(count):
                    append(CeeEvent(
                        now, machine_of[j],
                        core_of[j] if crash_attr[cursor] else None,
                        crash, automated,
                        None, "process crash",
                    ))
                    cursor += 1

            user_attr = channel_attribution(
                surfaced_user, P_ATTRIBUTE_USER
            )
            cursor = 0
            for j, count in zip(active, surfaced_user):
                if not count:
                    continue
                for _ in range(count):
                    event = CeeEvent(
                        now, machine_of[j],
                        core_of[j] if user_attr[cursor] else None,
                        user_report, human,
                        None, "production incident",
                    )
                    append(event)
                    if user_attr[cursor]:
                        user_reports.append(event)
                    cursor += 1

        # Background noise (software bugs, misfiled user suspicion).
        # The crashes are unattributed and only ever counted, so they
        # are one batch entry, logged after the mercurial channels'
        # records and before the background user reports.
        if events:
            self._log_records(events)
            events.clear()
        n_machines = self.n_machines
        n_bg_crash = int(rng.poisson(cfg.bg_crash_rate * n_machines * tick))
        if n_bg_crash:
            self.events.append_batch(
                now, crash, automated, "software bug",
                rng.integers(n_machines, size=n_bg_crash), self._machine_ids,
            )
        n_bg_user = int(rng.poisson(cfg.bg_user_rate * n_machines * tick))
        if n_bg_user:
            machine_indices = rng.integers(n_machines, size=n_bg_user).tolist()
            core_picks = rng.random(n_bg_user).tolist()
            user_attr = (rng.random(n_bg_user) < P_ATTRIBUTE_USER).tolist()
            for k, machine_index in enumerate(machine_indices):
                start, stop = columns.machine_core_range(machine_index)
                bad_core_id = columns.core_id(
                    start + int(core_picks[k] * (stop - start))
                )
                event = CeeEvent(
                    now, self._machine_ids[machine_index],
                    bad_core_id if user_attr[k] else None,
                    user_report, human,
                    None, "suspected bad machine",
                )
                append(event)
                if user_attr[k]:
                    user_reports.append(event)

        # Screening: cost in bulk, confession draws only for due cores.
        n_cores = self.n_cores
        coverage = self._coverage(now)
        self.screening_ops += (
            n_cores * tick / ONLINE_SCREEN_PERIOD_DAYS
            * cfg.online_corpus_ops
        )
        self.screening_ops += (
            n_cores * tick / OFFLINE_SCREEN_PERIOD_DAYS
            * cfg.offline_corpus_ops
        )
        if active:
            total_rate = self._active_rate
            idx = self._active_idx
            schedules = (
                (ONLINE_SCREEN_PERIOD_DAYS, cfg.online_corpus_ops,
                 1.0, "online screen"),
                (OFFLINE_SCREEN_PERIOD_DAYS, cfg.offline_corpus_ops,
                 OFFLINE_ENV_BOOST, "offline screen"),
            )
            for period, corpus_ops, env_boost, label in schedules:
                due = rng.random(len(active)) < tick / period
                n_due = int(due.sum())
                if not n_due:
                    continue
                p_detect = 1.0 - np.exp(
                    -total_rate[due] * env_boost * coverage * corpus_ops
                )
                confessed = (rng.random(n_due) < p_detect).tolist()
                for j, hit in zip(idx[due].tolist(), confessed):
                    if not hit:
                        continue
                    append(CeeEvent(
                        now, self._merc_machine_id[j], self._merc_core_id[j],
                        screen_fail, automated,
                        None, label,
                    ))

        if events:
            self._log_records(events)

    def run(self) -> SimulationResult:
        """Run the whole campaign and return the results bundle."""
        cfg = self.config
        tracker = self.analyzer.tracker
        quarantined = self.quarantine_day
        events_before = len(self.events)
        ticks = 0
        now = -cfg.warmup_days
        while now < cfg.horizon_days:
            tick = min(TICK_DAYS, cfg.horizon_days - now)
            now += tick
            ticks += 1
            self._user_reports = []
            self._attributed = []
            self._tick(now, tick)
            self.analyzer.ingest_all(self._attributed)
            # The service keeps re-nominating the cores it already had
            # taken offline; those have left suspicion for good.
            for suspect in self.complaints.quarantine_candidates():
                if suspect.core_id not in quarantined:
                    tracker.record(
                        suspect.core_id, now, weight=2.0,
                        source="complaint-service",
                    )
            # Confessions the policy emits are not ingested: it acts on them itself.
            self._apply_policy(now)
            self._run_triage(now, self._user_reports)
        if ticks:
            self._m_ticks.inc(ticks)
        logged = len(self.events) - events_before
        if logged:
            self._m_events.inc(logged)

        # The tick ages cores in a private array; leave the columns
        # holding the ages the campaign ended at.
        if self._n_mercurial:
            for index in np.nonzero(self._merc_live)[0].tolist():
                self._settle_age(index, now)
            np.maximum(
                self.columns.merc_age, self._merc_age,
                out=self.columns.merc_age,
            )

        return SimulationResult(
            config=cfg,
            events=self.events,
            truth=self.truth,
            n_machines=self.n_machines,
            n_cores=self.n_cores,
            quarantined_cores=set(self.quarantine_day),
            quarantine_day=dict(self.quarantine_day),
            detection_latency_days=dict(self.detection_latency),
            triage=self.triage,
            total_corruptions=self.total_corruptions,
            app_visible_corruptions=self.app_visible,
            screening_ops_spent=self.screening_ops,
        )
