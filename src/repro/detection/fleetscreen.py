"""Fleet-scale proxy screening: distillation, whole-fleet screens, ride-along.

The paper's §6 sketches the production detection stack; two follow-up
papers make it concrete.  *SiliFuzz* distills a fuzzing corpus into a
small per-functional-unit proxy battery cheap enough to run everywhere;
Facebook's *Silent Data Corruptions at Scale* runs "ride-along"
screening inside production spare cycles so the fleet screens itself
continuously instead of waiting for drain windows.  This module builds
both on the columnar substrate:

- :func:`distill` scores the existing :class:`~repro.detection.corpus.TestCorpus`
  per :class:`~repro.silicon.units.FunctionalUnit` and greedily selects
  a minimal battery on the coverage/run-cost frontier;
- :class:`FleetScreener` runs a battery across an entire
  :class:`~repro.fleet.columns.FleetColumns` fleet in batched numpy
  passes — healthy cores contribute only (bulk-accounted) cost, and
  detection draws touch only the dense mercurial sidecar, so a
  million-core screen is O(mercurial), not O(cores);
- :class:`RideAlongScreener` interleaves screens into
  :class:`~repro.fleet.scheduler.FleetScheduler` spare cycles under a
  machine-second budget, emitting
  :attr:`~repro.core.events.EventKind.FLEETSCREEN_FAIL` confessions and
  :attr:`~repro.core.events.EventKind.RIDEALONG_SKIPPED` coverage
  breadcrumbs;
- :class:`RideAlongCampaign` closes the loop: confessions feed the
  suspicion weights from :mod:`repro.detection.weights` and quarantine
  flips ``columns.online`` — the same evidence→isolation loop the fleet
  simulator runs, specialized to screening-only detection so E19 can
  price screening policies against E9's online/offline baseline.

Screening never mutates fleet state, so a :class:`FleetScreener`
accepts read-only columns directly — the arrays a forked worker
inherits, or a shared-memory snapshot view (:mod:`repro.fleet.shm`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

import numpy as np

from repro import obs
from repro.core.events import CeeEvent, EventKind, EventLog, Reporter
from repro.detection.corpus import ScreeningTest, TestCorpus
from repro.detection.weights import default_weights
from repro.fleet.columns import FleetColumns
from repro.silicon.defects import MachineCheckDefect
from repro.silicon.environment import NOMINAL
from repro.silicon.units import ALL_OPS, UNIT_OPS, FunctionalUnit

#: fixed functional-unit axis for every ops/rate vector in this module
UNIT_ORDER: tuple[FunctionalUnit, ...] = tuple(FunctionalUnit)

#: battery execution speed, for machine-second cost accounting
OPS_PER_CORESECOND = 5e6
#: suspicion score at which the ride-along campaign isolates a core
#: (the default policy's 6.0)
RIDEALONG_QUARANTINE_THRESHOLD = 6.0
#: production ops per core-day at risk while a defect goes undetected
RIDEALONG_EXPOSED_OPS_PER_DAY = 2e7
#: fraction of online slots occupied by scheduled production tasks each
#: tick (they are not spare, so ride-along cannot screen them that tick)
RIDEALONG_BUSY_FRACTION = 0.5

#: column position of each unit on the :data:`UNIT_ORDER` axis
UNIT_INDEX: dict[FunctionalUnit, int] = {
    unit: index for index, unit in enumerate(UNIT_ORDER)
}


def unit_ops_vector(tests: Iterable[ScreeningTest]) -> np.ndarray:
    """Ops applied per functional unit by a battery, on :data:`UNIT_ORDER`.

    Each test's ``approx_ops`` are split evenly across the units it
    targets — a library test that exercises three units spends a third
    of its dynamic ops in each.  This is the ops-weighting the analytic
    detection probability consumes.
    """
    ops = np.zeros(len(UNIT_ORDER))
    for test in tests:
        if not test.target_units:
            continue
        share = test.approx_ops / len(test.target_units)
        for unit in test.target_units:
            ops[UNIT_INDEX[unit]] += share
    return ops


@dataclasses.dataclass(frozen=True, slots=True)
class DistilledBattery:
    """A distilled per-unit screening battery (the SiliFuzz artifact).

    Attributes:
        tests: the selected corpus subset, in selection order.
        source_units: units the *source* corpus covered (the coverage
            denominator — a battery cannot cover units no test targets).
    """

    tests: tuple[ScreeningTest, ...]
    source_units: frozenset

    @property
    def covered_units(self) -> frozenset:
        """Units at least one selected test exercises."""
        covered: set = set()
        for test in self.tests:
            covered |= test.target_units
        return frozenset(covered)

    @property
    def total_ops(self) -> int:
        """Run cost of one full battery pass, in dynamic ops."""
        return sum(test.approx_ops for test in self.tests)

    @property
    def coverage_fraction(self) -> float:
        """Fraction of the source corpus's units this battery covers."""
        if not self.source_units:
            return 1.0
        return len(self.covered_units & self.source_units) / len(
            self.source_units
        )

    def ops_by_unit(self) -> np.ndarray:
        """Per-unit ops vector on the :data:`UNIT_ORDER` axis."""
        return unit_ops_vector(self.tests)

    def test_names(self) -> tuple[str, ...]:
        """Selected test names, in selection order (determinism probes)."""
        return tuple(test.name for test in self.tests)


def full_battery(corpus: TestCorpus) -> DistilledBattery:
    """The un-distilled corpus wrapped as a battery (the E19 baseline arm)."""
    return DistilledBattery(
        tests=tuple(corpus.tests),
        source_units=corpus.covered_units(),
    )


def distill(
    corpus: TestCorpus, min_coverage: float = 1.0
) -> DistilledBattery:
    """Greedy minimal-set corpus distillation (SiliFuzz-style).

    Repeatedly selects the test with the best marginal
    units-per-op ratio until ``min_coverage`` of the source corpus's
    unit coverage is reached.  The selection is a pure function of the
    corpus contents (names, target units, ``approx_ops``) — no RNG —
    so equal corpora distill to identical batteries; ties break toward
    the cheaper test, then lexicographically by name.

    Args:
        corpus: the source corpus to distill.
        min_coverage: fraction of the corpus's covered units the
            battery must reach (1.0 = full set cover).
    """
    if not 0.0 < min_coverage <= 1.0:
        raise ValueError("min_coverage must be in (0, 1]")
    universe = corpus.covered_units()
    target = math.ceil(min_coverage * len(universe))
    remaining = set(universe)
    pool = list(corpus.tests)
    chosen: list[ScreeningTest] = []

    with obs.tracer.span(
        "fleetscreen.distill",
        corpus_tests=len(pool), units=len(universe),
    ):
        while len(universe) - len(remaining) < target and pool:
            best: ScreeningTest | None = None
            best_key: tuple[float, int, str] | None = None
            for test in pool:
                gain = len(remaining & test.target_units)
                if gain == 0:
                    continue
                # Lower cost-per-newly-covered-unit wins; exact ties go
                # to the cheaper, then lexicographically-first test.
                key = (
                    max(test.approx_ops, 1) / gain,
                    test.approx_ops,
                    test.name,
                )
                if best_key is None or key < best_key:
                    best, best_key = test, key
            if best is None:
                break
            chosen.append(best)
            pool.remove(best)
            remaining -= best.target_units
    return DistilledBattery(tests=tuple(chosen), source_units=universe)


# --------------------------------------------------------------------
# Vectorized whole-fleet screening
# --------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class FleetScreenResult:
    """Outcome of one fleet screening pass.

    Attributes:
        events: confessions (``FLEETSCREEN_FAIL``) emitted this pass.
        n_screened: cores the battery actually ran on.
        cost_ops: total dynamic ops spent (bulk: every screened core
            pays one battery).
        machine_seconds: the same cost in machine-seconds at the
            screener's ops-per-core-second rate.
        confessed_flat: flat core indices that confessed.
    """

    events: tuple[CeeEvent, ...]
    n_screened: int
    cost_ops: float
    machine_seconds: float
    confessed_flat: tuple[int, ...]


class FleetScreener:
    """Runs one battery across a columnar fleet in batched numpy passes.

    Healthy cores always pass, so their screening contributes only
    cost, accounted in a single bulk expression over the screened mask.
    Detection draws run over the dense mercurial sidecar: a per-unit
    rate matrix (mercurial × unit) against the battery's per-unit ops
    vector gives each active defect's analytic confession probability
    ``1 - exp(-(rates · ops) · env_boost)`` — the same expression the
    fleet simulator uses, resolved per unit instead of by a scalar
    coverage factor, so a battery that misses a defect's unit yields
    exactly zero detection probability.

    Args:
        battery: distilled (or full) battery to run.
        env_boost: environment stress multiplier (offline-style screens
            run hotter/faster, boosting defect rates — §2's "outside
            normal operating conditions").
    """

    def __init__(self, battery: DistilledBattery, env_boost: float = 1.0):
        # A NaN, zero or negative boost runs and confesses nothing.
        if not (math.isfinite(env_boost) and env_boost > 0):
            raise ValueError(
                f"env_boost must be finite and > 0, got {env_boost}"
            )
        self.battery = battery
        self.env_boost = env_boost
        self._unit_ops = battery.ops_by_unit()
        # What _unit_rates remembers belongs to one fleet, recognised by
        # its ``merc_core`` array: immutable, shared by ``thaw()``, and
        # kept alive here so its identity cannot be recycled.  Per
        # mercurial core, per unit its defects touch: the unit's index
        # and the age-free rate plans of those defects.
        self._planned_for: np.ndarray | None = None
        self._rate_plans: list[list[tuple[int, list[tuple]]]] = []
        # (mercurial × unit) per-op rate cache, keyed by rounded age so
        # week-scale aging refreshes it (the simulator's refresh cadence)
        self._rate_cache: dict[int, np.ndarray] = {}

    def _unit_rates(
        self, columns: FleetColumns, age_days: np.ndarray
    ) -> np.ndarray:
        """Per-op corruption rate per (mercurial core, unit).

        The only Python loop in the screener — over the mercurial
        sidecar (tens of entries per million cores at paper
        prevalence), never over the fleet.
        """
        n_merc = columns.n_mercurial
        if self._planned_for is not columns.merc_core:
            unit_mixes = [
                {op: 1.0 / len(UNIT_OPS[unit]) for op in UNIT_OPS[unit]}
                for unit in UNIT_ORDER
            ]
            self._rate_plans = [
                [
                    (u, plans)
                    for u, mix in enumerate(unit_mixes)
                    if (plans := [
                        (defect, plan)
                        for defect in columns.merc_defects(i)
                        if (plan := defect.rate_plan(mix, NOMINAL))
                    ])
                ]
                for i in range(n_merc)
            ]
            self._planned_for = columns.merc_core
            self._rate_cache = {}
        week = int(np.floor(float(age_days.mean()) / 7.0)) if n_merc else 0
        cached = self._rate_cache.get(week)
        if cached is not None:
            return cached
        rates = np.zeros((n_merc, len(UNIT_ORDER)))
        for i, unit_plans in enumerate(self._rate_plans):
            age = float(age_days[i])
            # a unit no defect touches keeps its exact 0.0, and a defect
            # that misses the unit would add an exact 0.0
            for u, plans in unit_plans:
                rates[i, u] = sum(
                    defect.rate_at_age(plan, age) for defect, plan in plans
                )
        self._rate_cache = {week: rates}
        return rates

    def screen(
        self,
        columns: FleetColumns,
        now_days: float,
        rng: np.random.Generator,
        subset: np.ndarray | None = None,
    ) -> FleetScreenResult:
        """Screen every online core (optionally restricted to a mask).

        Accepts read-only columns — screening never writes fleet
        state, so a read-only view screens without a copy.

        Args:
            columns: the fleet (or a read-only view of one).
            now_days: fleet time; defect ages derive from deploy days.
            rng: seeded generator for the confession draws.
            subset: optional per-core boolean mask (e.g. a shard's
                slice, or ride-along spare slots).
        """
        # A NaN time ages no defect past onset: cost, no confessions.
        if not math.isfinite(now_days):
            raise ValueError(f"now_days must be finite, got {now_days}")
        mask = columns.online
        if subset is not None:
            mask = mask & subset
        n_screened = int(np.count_nonzero(mask))
        cost_ops = float(n_screened) * self.battery.total_ops
        machine_seconds = cost_ops / OPS_PER_CORESECOND

        merc_flat = np.asarray(columns.merc_core, dtype=np.int64)
        events: list[CeeEvent] = []
        confessed: list[int] = []
        if merc_flat.size:
            merc_machine = columns.core_machine[merc_flat].astype(np.int64)
            age = now_days - columns.machine_deploy_day[merc_machine]
            eligible = mask[merc_flat] & (age >= columns.merc_onset)
            if eligible.any():
                rates = self._unit_rates(columns, age)
                exposure = rates @ self._unit_ops
                p_detect = 1.0 - np.exp(-exposure * self.env_boost)
                draws = rng.random(merc_flat.size) < p_detect
                hits = np.nonzero(eligible & draws)[0]
                for index in hits.tolist():
                    flat = int(merc_flat[index])
                    confessed.append(flat)
                    events.append(CeeEvent(
                        time_days=now_days,
                        machine_id=columns.machine_id(int(merc_machine[index])),
                        core_id=columns.core_id(flat),
                        kind=EventKind.FLEETSCREEN_FAIL,
                        reporter=Reporter.AUTOMATED,
                        detail="fleet screen",
                    ))
        self._record(n_screened, len(confessed), machine_seconds)
        return FleetScreenResult(
            events=tuple(events),
            n_screened=n_screened,
            cost_ops=cost_ops,
            machine_seconds=machine_seconds,
            confessed_flat=tuple(confessed),
        )

    def _record(
        self, n_screened: int, n_confessed: int, machine_seconds: float
    ) -> None:
        obs.metrics.counter(
            "fleetscreen_screens_total",
            help="cores screened by fleet battery passes",
            unit="cores",
        ).inc(n_screened)
        if n_confessed:
            obs.metrics.counter(
                "fleetscreen_confessions_total",
                help="FLEETSCREEN_FAIL confessions extracted by battery passes",
                unit="events",
            ).inc(n_confessed)
        obs.metrics.counter(
            "fleetscreen_machine_seconds",
            help="machine-seconds spent running fleet screening batteries",
            unit="seconds",
        ).inc(machine_seconds)
        with obs.tracer.span(
            "fleetscreen.pass",
            screened=n_screened, confessions=n_confessed,
        ):
            pass


# --------------------------------------------------------------------
# Ride-along screening in scheduler spare cycles
# --------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class RideAlongConfig:
    """Budget and pacing for in-production ride-along screening.

    In-production screens run at nominal conditions (the
    :class:`FleetScreener` default ``env_boost`` of 1.0) and at its
    default battery speed.

    Attributes:
        budget_fraction: fraction of the fleet's machine-seconds per
            day that screening may consume (the headline knob —
            Facebook reports sub-percent budgets sufficing).
    """

    budget_fraction: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in [0, 1]")


@dataclasses.dataclass(frozen=True, slots=True)
class RideAlongResult:
    """One ride-along pass: what was screened and what it cost.

    Attributes:
        screen: the underlying fleet-screen outcome over the slots the
            budget afforded.
        budget_machine_seconds: machine-seconds the pass was allowed.
        spent_machine_seconds: machine-seconds actually consumed
            (never exceeds the budget — the accounting invariant the
            budget tests pin).
        n_candidates: spare slots that wanted screening this pass.
        n_skipped: candidates the budget could not reach.
        events: confessions plus the ``RIDEALONG_SKIPPED`` breadcrumb
            when coverage was lost.
    """

    screen: FleetScreenResult
    budget_machine_seconds: float
    spent_machine_seconds: float
    n_candidates: int
    n_skipped: int
    events: tuple[CeeEvent, ...]


class RideAlongScreener:
    """Interleaves battery screens into scheduler spare cycles.

    Each pass takes the spare slots (online cores not running scheduled
    tasks), affords as many as the machine-second budget covers, and
    advances a round-robin cursor so successive passes sweep the whole
    fleet rather than re-screening the same low-indexed cores.  When
    the budget truncates coverage, a single aggregate
    ``RIDEALONG_SKIPPED`` breadcrumb records the lost slots so
    forensics can explain detection blind spots.
    """

    def __init__(self, battery: DistilledBattery,
                 config: RideAlongConfig | None = None):
        self.config = config or RideAlongConfig()
        self.screener = FleetScreener(battery)
        self._cursor = 0

    @property
    def battery(self) -> DistilledBattery:
        return self.screener.battery

    def per_core_seconds(self) -> float:
        """Machine-seconds one core's battery pass costs."""
        return self.battery.total_ops / OPS_PER_CORESECOND

    def budget_machine_seconds(
        self, columns: FleetColumns, tick_days: float
    ) -> float:
        """The pass budget: fleet machine-seconds × fraction."""
        return (
            columns.n_machines * 86400.0 * tick_days
            * self.config.budget_fraction
        )

    def run_pass(
        self,
        columns: FleetColumns,
        now_days: float,
        tick_days: float,
        rng: np.random.Generator,
        busy: np.ndarray | None = None,
    ) -> RideAlongResult:
        """One budgeted screening pass over the scheduler's spare slots.

        Args:
            columns: the fleet.
            now_days: fleet time.
            tick_days: machine-seconds accrue over this interval.
            rng: seeded generator for confession draws.
            busy: per-core boolean mask of slots occupied by scheduled
                tasks (e.g. derived from
                :meth:`~repro.fleet.scheduler.FleetScheduler.schedule`
                placements); spare slots are the online remainder.
        """
        spare = columns.online.copy()
        if busy is not None:
            spare &= ~busy
        candidates = np.nonzero(spare)[0]
        n_candidates = int(candidates.shape[0])

        budget = self.budget_machine_seconds(columns, tick_days)
        per_core = self.per_core_seconds()
        affordable = (
            n_candidates if per_core <= 0.0
            else min(n_candidates, int(budget // per_core))
        )

        # Round-robin: rotate the candidate list so the cursor's core
        # goes first, then take what the budget affords.
        if n_candidates:
            start = int(
                np.searchsorted(candidates, self._cursor % columns.n_cores)
            ) % n_candidates
            picked = np.roll(candidates, -start)[:affordable]
            if affordable:
                self._cursor = int(picked[-1]) + 1
        else:
            picked = candidates[:0]

        subset = np.zeros(columns.n_cores, dtype=bool)
        subset[picked] = True
        screen = self.screener.screen(columns, now_days, rng, subset=subset)

        n_skipped = n_candidates - affordable
        events = list(screen.events)
        if n_skipped > 0:
            # One aggregate breadcrumb per pass; core_id=None keeps the
            # analyzer from charging any specific core for lost coverage.
            first_skipped = int(np.roll(candidates, -start)[affordable])
            machine_index = int(columns.core_machine[first_skipped])
            events.append(CeeEvent(
                time_days=now_days,
                machine_id=columns.machine_id(machine_index),
                core_id=None,
                kind=EventKind.RIDEALONG_SKIPPED,
                reporter=Reporter.AUTOMATED,
                detail=f"budget exhausted: {n_skipped} slots unscreened",
            ))
            obs.metrics.counter(
                "fleetscreen_budget_skips_total",
                help="spare slots ride-along screening could not "
                     "afford (lost coverage)",
                unit="slots",
            ).inc(n_skipped)
        return RideAlongResult(
            screen=screen,
            budget_machine_seconds=budget,
            spent_machine_seconds=screen.machine_seconds,
            n_candidates=n_candidates,
            n_skipped=n_skipped,
            events=tuple(events),
        )


# --------------------------------------------------------------------
# The screening-only detection campaign (E19's unit of work)
# --------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class RideAlongReport:
    """Campaign outcome: detection latency and exposure accounting.

    Attributes:
        horizon_days: simulated span.
        detected: mercurial flat index → detection (quarantine) day.
        detection_latency_days: per detected core, days from defect
            activation to quarantine.
        escaped_corruptions: expected corrupt results produced by
            active, not-yet-quarantined defects over the horizon
            (escapes-before-detection).
        machine_seconds: total screening machine-seconds spent.
        budget_machine_seconds: total machine-seconds the budget allowed.
        skipped_slots: spare slots the budget could not screen.
        n_confessions: FLEETSCREEN_FAIL events emitted.
        n_active: mercurial cores whose defects activated in-horizon.
        events: the full event log (forensics timelines).
    """

    horizon_days: float
    detected: dict[int, float]
    detection_latency_days: list[float]
    escaped_corruptions: float
    machine_seconds: float
    budget_machine_seconds: float
    skipped_slots: int
    n_confessions: int
    n_active: int
    events: EventLog

    @property
    def detected_fraction(self) -> float:
        """Fraction of in-horizon-active defects caught."""
        if self.n_active == 0:
            return 1.0
        return len(self.detected) / self.n_active

    @property
    def median_latency_days(self) -> float:
        """Median activation→quarantine latency (inf when nothing caught)."""
        if not self.detection_latency_days:
            return float("inf")
        return float(np.median(self.detection_latency_days))


class RideAlongCampaign:
    """Day-stepped screening-only campaign with the quarantine loop.

    Confessions score against the :mod:`repro.detection.weights` table
    and a core is quarantined (``columns.online`` flipped off, exactly
    like the fleet simulator's isolation) once its suspicion crosses
    the policy threshold.  Escapes-before-detection integrate each
    active, unquarantined defect's silent production-rate exposure —
    the quantity a screening budget is supposed to minimize.

    Args:
        columns: the fleet (thawed to writable state internally).
        screener: the budgeted ride-along screener to drive.
        seed: campaign RNG seed (confession draws).
    """

    def __init__(
        self,
        columns: FleetColumns,
        screener: RideAlongScreener,
        seed: int = 0,
    ):
        self.columns = columns.thaw() if columns.read_only else columns
        self.screener = screener
        self.rng = np.random.default_rng(seed)
        self.weights = default_weights()

    def _production_silent_rates(self) -> np.ndarray:
        """Per-mercurial silent per-op rate under a uniform prod mix.

        Machine-check defects are excluded: they crash loudly instead
        of leaking corrupt results, so they don't count as escapes.
        """
        columns = self.columns
        n_merc = columns.n_mercurial
        mix = {op: 1.0 / len(ALL_OPS) for op in ALL_OPS}
        rates = np.zeros(n_merc)
        for i in range(n_merc):
            rates[i] = sum(
                defect.mean_rate(mix, NOMINAL, 0.0)
                for defect in columns.merc_defects(i)
                if not isinstance(defect, MachineCheckDefect)
            )
        return rates

    def run(
        self, horizon_days: float, tick_days: float = 1.0
    ) -> RideAlongReport:
        """Run the campaign; returns latency/exposure accounting."""
        # Unchecked, a negative or NaN horizon yields an empty but
        # plausible-looking report and a zero, negative or infinite tick
        # breaks the tick count.
        if not (math.isfinite(horizon_days) and horizon_days >= 0):
            raise ValueError(
                f"horizon_days must be finite and >= 0, got {horizon_days}"
            )
        if not (math.isfinite(tick_days) and tick_days > 0):
            raise ValueError(
                f"tick_days must be finite and > 0, got {tick_days}"
            )
        columns = self.columns
        merc_flat = np.asarray(columns.merc_core, dtype=np.int64)
        merc_machine = columns.core_machine[merc_flat].astype(np.int64)
        deploy = columns.machine_deploy_day[merc_machine]
        silent_rates = self._production_silent_rates()

        events = EventLog()
        scores: dict[int, float] = {}
        detected: dict[int, float] = {}
        latencies: list[float] = []
        escaped = 0.0
        machine_seconds = 0.0
        budget_seconds = 0.0
        skipped = 0
        confessions = 0
        flat_to_merc = {
            int(flat): index for index, flat in enumerate(merc_flat.tolist())
        }

        n_ticks = max(1, int(round(horizon_days / tick_days)))
        for step in range(n_ticks):
            now = step * tick_days
            # Exposure: every active, still-online defect leaks expected
            # corruptions into production until quarantined.
            if merc_flat.size:
                age = now - deploy
                active = (age >= columns.merc_onset) & columns.online[merc_flat]
                escaped += float(
                    (silent_rates[active]
                     * RIDEALONG_EXPOSED_OPS_PER_DAY * tick_days).sum()
                )
            # Production tasks occupy a deterministic prefix of online
            # slots (the scheduler consumes free slots in flat order).
            online_flat = np.nonzero(columns.online)[0]
            n_busy = int(online_flat.shape[0] * RIDEALONG_BUSY_FRACTION)
            busy = np.zeros(columns.n_cores, dtype=bool)
            busy[online_flat[:n_busy]] = True

            result = self.screener.run_pass(
                columns, now, tick_days, self.rng, busy=busy,
            )
            events.extend(result.events)
            machine_seconds += result.spent_machine_seconds
            budget_seconds += result.budget_machine_seconds
            skipped += result.n_skipped
            confessions += len(result.screen.confessed_flat)

            for flat in result.screen.confessed_flat:
                weight = self.weights[EventKind.FLEETSCREEN_FAIL]
                scores[flat] = scores.get(flat, 0.0) + weight
                if (scores[flat] >= RIDEALONG_QUARANTINE_THRESHOLD
                        and flat not in detected):
                    columns.online[flat] = False
                    detected[flat] = now
                    merc_index = flat_to_merc[flat]
                    activation = float(
                        deploy[merc_index] + columns.merc_onset[merc_index]
                    )
                    latencies.append(now - max(activation, 0.0))

        # Defects that activated inside the horizon (the denominator).
        if merc_flat.size:
            final_age = horizon_days - deploy
            n_active = int((final_age >= columns.merc_onset).sum())
        else:
            n_active = 0
        return RideAlongReport(
            horizon_days=horizon_days,
            detected=detected,
            detection_latency_days=latencies,
            escaped_corruptions=escaped,
            machine_seconds=machine_seconds,
            budget_machine_seconds=budget_seconds,
            skipped_slots=skipped,
            n_confessions=confessions,
            n_active=n_active,
            events=events,
        )


__all__ = [
    "DistilledBattery",
    "FleetScreenResult",
    "FleetScreener",
    "RideAlongCampaign",
    "RideAlongConfig",
    "RideAlongReport",
    "RideAlongResult",
    "RideAlongScreener",
    "UNIT_ORDER",
    "distill",
    "full_battery",
    "unit_ops_vector",
]
