"""Instrcheck campaigns: checking arms racing corruption to delivery.

One campaign drives a deterministic op-stream workload across a small
fleet under ONE checking arm and scores it on the two axes the §7
tradeoff is about:

- **slowdown factor** — total executed operations (payload plus
  duplicates, checker re-executions, replays, rollback waste, screen
  batteries) relative to the unchecked run;
- **coverage** — the fraction of CEE-affected work units the arm
  flagged before the result propagated downstream, versus the units
  delivered corrupt with no flag (escapes).

Arms:

``ithica``
    :class:`~repro.mitigation.instrcheck.policies.IthicaCheckedCore`
    per lane — same-core duplicate execution of sampled ops.
``meek``
    :class:`~repro.mitigation.instrcheck.policies.MeekCheckedCore`
    per lane, all lanes sharing one checker core, the first free core
    after theirs (:meth:`repro.campaign.Campaign.place`) — the checker
    drains each lane's bounded lag queue at a fixed per-tick budget.
``reptfd``
    :class:`~repro.mitigation.instrcheck.policies.ReplayChecker` per
    lane — granule-delimited commits with sampled replay on the
    checker core and rollback re-runs on spare cores.
``e2e``
    the E11 end-to-end check as a reference point: a sampled fraction
    of whole units is re-executed on a trusted client core (healthy by
    construction — the end-to-end argument needs one honest endpoint)
    and digest-compared before delivery.
``screen``
    the E9 online-screening reference: no per-op checks at all; a
    periodic screening battery runs on each lane core and a failure is
    a confession.  Screening catches *cores*, never in-flight results,
    so its pre-propagation coverage is honestly ~zero — every corrupt
    unit delivered before quarantine is an escape — but it stops the
    bleeding cheaply.

Every catch becomes a weighted :class:`~repro.core.events.CeeEvent`
(``INSTRCHECK_MISMATCH``, ``REPLAY_DIVERGENCE``, ``SCREEN_FAIL``,
``APP_REPORT``; queue overflow logs ``CHECKER_LAG_OVERFLOW``) feeding
the :class:`~repro.campaign.Campaign` kernel's analyzer → quarantine
loop, so instrcheck catches are attributable in ``repro trace``
forensics timelines and a condemned lane is re-placed on a spare core
(:meth:`repro.campaign.Campaign.spare_core`).
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np

from repro import obs
from repro.campaign import (
    Campaign,
    CampaignScorecard,
    Published,
    build_small_fleet,
    check_at_least,
)
from repro.core.events import EventKind
from repro.core.policy import PolicyConfig
from repro.fleet.machine import Machine
from repro.mitigation.checkpoint import GranuleFailedError
from repro.mitigation.instrcheck.policies import (
    InstrCheckStats,
    IthicaCheckedCore,
    MeekCheckedCore,
    ReplayChecker,
    WorkUnit,
    _hash01,
    result_digest,
)
from repro.obs import names
from repro.silicon.core import Core
from repro.silicon.defects import (
    DefectModel,
    OperandPatternDefect,
    StuckBitDefect,
)
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.golden import golden_execute
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.base import digest_ints

#: the checking arms a campaign can run, cheapest-to-check first
ARMS: tuple[str, ...] = ("screen", "ithica", "reptfd", "meek", "e2e")

#: the op mix every work unit draws from (ALU-heavy, §2's archetypes)
UNIT_OPS: tuple[str, ...] = (
    Op.ADD, Op.SUB, Op.XOR, Op.CMP, Op.ADD, Op.MUL, Op.LOAD, Op.STORE,
)


#: ops per generated work unit
OPS_PER_UNIT = 16
#: worker lanes, one core each
N_LANES = 4
#: MEEK: bounded check-lag queue length per lane
LAG_LIMIT = 64
#: MEEK: checker-core drain budget per lane per tick
DRAIN_PER_TICK = 12
#: RepTFD: units per checkpoint-delimited granule
GRANULE_UNITS = 4
#: screen arm: ops per battery
SCREEN_OPS = 24
#: operand magnitude for generated units
OPERAND_BITS = 20


@dataclasses.dataclass(slots=True)
class InstrCheckConfig:
    """Workload size, sampling rate and screening cadence for one
    instrcheck campaign."""

    units: int = 320
    sample_rate: float = 0.33
    #: screen arm: ticks between screening batteries (per lane core)
    screen_interval_ticks: int = 4
    #: quarantine capacity sized for multi-bad-core prevalence cells
    policy: PolicyConfig = dataclasses.field(
        default_factory=lambda: PolicyConfig(max_quarantined_fraction=0.5)
    )
    #: a constant, not an option; read through the config like the
    #: other runners' tick length
    tick_ms: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        check_at_least("units", self.units, 0)
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        check_at_least("screen_interval_ticks", self.screen_interval_ticks, 1)


@dataclasses.dataclass(slots=True)
class InstrCheckScorecard(CampaignScorecard):
    """What one (arm, sampling rate) configuration achieved."""

    rates = ("slowdown_factor", "coverage")

    sample_rate: float = 0.0
    units_total: int = 0
    units_delivered: int = 0
    units_crashed: int = 0
    #: CEE-affected units the arm flagged before propagation
    cees_caught: int = 0
    #: corrupt units delivered with no flag (the silent hazard)
    cees_escaped: int = 0
    #: flagged units whose delivered output was nonetheless correct
    #: (RepTFD rollback corrections; ITHICA duplicate-run corruptions)
    flagged_clean_units: int = 0
    screen_fails: int = 0
    machine_checks: int = 0
    payload_ops: int = 0
    check_ops: int = 0
    ops_sampled: int = 0
    mismatches: int = 0
    lag_drops: int = 0
    replays: int = 0

    @property
    def slowdown_factor(self) -> float:
        """Total executed ops relative to the unchecked baseline."""
        if self.payload_ops == 0:
            return 1.0
        return (self.payload_ops + self.check_ops) / self.payload_ops

    @property
    def coverage(self) -> float:
        """Fraction of CEE-affected units caught before propagation."""
        total = self.cees_caught + self.cees_escaped
        if total == 0:
            return 1.0
        return self.cees_caught / total

    def summary_row(self) -> list[str]:
        return [
            self.name,
            f"{self.sample_rate:g}",
            f"{self.slowdown_factor:.2f}x",
            f"{self.coverage:.1%}",
            str(self.cees_caught),
            str(self.cees_escaped),
            str(self.lag_drops),
            str(len(self.quarantine_tick)),
        ]


class _Lane:
    """One worker lane: a primary core plus its arm-specific wrapper."""

    __slots__ = ("index", "core", "wrapper", "replayer", "buffer",
                 "buffer_tags")

    def __init__(self, index: int, core: Core):
        self.index = index
        self.core = core
        self.wrapper = None
        self.replayer: ReplayChecker | None = None
        self.buffer: list[WorkUnit] = []
        self.buffer_tags: list[int] = []


class InstrCheckCampaign(Campaign):
    """One arm, one fleet, one deterministic op stream, one scorecard."""

    scorecard: InstrCheckScorecard
    published = (
        Published(
            names.INSTRCHECK_OPS_CHECKED_TOTAL, "counter", "ops",
            "ops re-executed by a checking arm (duplicates, "
            "checker stream, replays)",
            lambda card: {card.name: card.ops_sampled},
            label="arm",
        ),
        Published(
            names.INSTRCHECK_MISMATCHES_TOTAL, "counter", "events",
            "duplicate/checker digest disagreements",
            lambda card: {card.name: card.mismatches},
            label="arm",
        ),
        Published(
            names.INSTRCHECK_LAG_DROPS_TOTAL, "counter", "entries",
            "check-stream entries dropped on lag-queue overflow "
            "(coverage lost)",
            lambda card: card.lag_drops,
        ),
        Published(
            names.INSTRCHECK_REPLAYS_TOTAL, "counter", "granules",
            "granules replayed on the checker core (RepTFD)",
            lambda card: card.replays,
        ),
        Published(
            names.INSTRCHECK_QUARANTINES_TOTAL, "counter", "cores",
            "cores pulled from the lane pool by the campaign "
            "policy loop",
            lambda card: len(card.quarantine_tick),
        ),
    )

    def __init__(
        self,
        machines: list[Machine],
        arm: str,
        config: InstrCheckConfig | None = None,
        seed: int = 0,
    ):
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r}; known: {ARMS}")
        self.arm = arm
        self.config = config or InstrCheckConfig()
        self.seed = seed
        # The kernel's trusted client core runs the E11-style e2e check.
        super().__init__(
            machines,
            InstrCheckScorecard(name=arm, sample_rate=self.config.sample_rate),
            self.config.policy, label="instrcheck",
            tick_ms=self.config.tick_ms, seed=seed,
        )
        self.stats = InstrCheckStats()

        # Deterministic workload: units and expected digests up front.
        rng = np.random.default_rng(seed)
        hi = 2 ** OPERAND_BITS
        self.units: list[WorkUnit] = []
        for _ in range(self.config.units):
            unit = []
            for _ in range(OPS_PER_UNIT):
                op = UNIT_OPS[int(rng.integers(len(UNIT_OPS)))]
                a = int(rng.integers(hi))
                b = int(rng.integers(hi))
                operands = (a,) if op == Op.LOAD or op == Op.STORE else (a, b)
                unit.append((op, operands))
            self.units.append(tuple(unit))
        self.expected = [self._golden_digest(u) for u in self.units]
        self._screen_rng = np.random.default_rng(seed + 11)

        # Lanes take the first free cores; the MEEK/RepTFD checker the
        # next one.
        if arm in ("meek", "reptfd"):
            cores = self.place(N_LANES + 1, "lane and checker cores")
            self.checker_core: Core | None = cores.pop()
        else:
            cores = self.place(N_LANES, "lanes")
            self.checker_core = None
        self.lanes = [_Lane(i, core) for i, core in enumerate(cores)]

        self._caught: set[int] = set()
        self._delivered: dict[int, int] = {}
        self._confessed: set[str] = set()
        self._lane_generation = 0
        self._current_tick = 0
        self._overflow_tick: dict[str, int] = {}

        for lane in self.lanes:
            self._equip_lane(lane)

    # -- workload ------------------------------------------------------

    @staticmethod
    def _golden_digest(unit: WorkUnit) -> int:
        """Host-side expected digest (never routed through a core)."""
        return digest_ints(
            result_digest(golden_execute(op, *operands))
            for op, operands in unit
        )

    # -- lane equipment ------------------------------------------------

    def _busy(self) -> set[str]:
        """The cores hosting a lane or the checker."""
        busy = {lane.core.core_id for lane in self.lanes}
        if self.checker_core is not None:
            busy.add(self.checker_core.core_id)
        return busy

    def _equip_lane(self, lane: _Lane) -> None:
        """(Re)build a lane's arm wrapper around its current core."""
        cfg = self.config
        sampler_seed = self.seed + 100 * lane.index + self._lane_generation
        if self.arm == "ithica":
            lane.wrapper = IthicaCheckedCore(
                lane.core, cfg.sample_rate, seed=sampler_seed,
                stats=self.stats, on_mismatch=self._on_mismatch,
            )
        elif self.arm == "meek":
            assert self.checker_core is not None
            lane.wrapper = MeekCheckedCore(
                lane.core, self.checker_core, cfg.sample_rate,
                lag_limit=LAG_LIMIT, seed=sampler_seed,
                stats=self.stats, on_mismatch=self._on_mismatch,
                on_overflow=self._on_overflow,
            )
        elif self.arm == "reptfd":
            assert self.checker_core is not None
            lane.replayer = ReplayChecker(
                [lane.core] + self.free_cores(self._busy()),
                self.checker_core, sample_rate=cfg.sample_rate,
                seed=sampler_seed, stats=self.stats,
                on_divergence=self._on_divergence,
                on_replay=self._on_replay,
            )
        # "e2e" and "screen" run on the bare core.

    # -- event plumbing ------------------------------------------------

    def _on_mismatch(self, core_id: str, op: str, tag: int) -> None:
        self._caught.add(tag)
        self.emit(core_id, EventKind.INSTRCHECK_MISMATCH, f"op {op}")

    def _on_divergence(self, core_id: str, op: str, tag: int) -> None:
        self._caught.add(tag)
        self.emit(core_id, EventKind.REPLAY_DIVERGENCE, f"granule op {op}")

    def _on_overflow(self, core_id: str, tag: int) -> None:
        # Deliberately *unattributed* (core_id=None): an overflowing
        # check queue means the checker fell behind — coverage lost,
        # not evidence against the primary.  An attributed weight here
        # would condemn healthy lanes at full sampling rate.  Also
        # throttled to one event per lane per tick; the exact drop
        # count lives in stats.lag_drops (and so in the metric).
        if self._overflow_tick.get(core_id) == self._current_tick:
            return
        self._overflow_tick[core_id] = self._current_tick
        self.emit(
            core_id, EventKind.CHECKER_LAG_OVERFLOW,
            f"dropped entries near unit {tag}",
            attributed=False,
        )

    def _on_replay(self, tag: int, n_units: int) -> None:
        self.scorecard.replays += 1
        with obs.tracer.span("instrcheck.replay", tag=tag, units=n_units):
            pass

    # -- unit execution ------------------------------------------------

    def _execute_checked(self, lane: _Lane, tag: int) -> None:
        """Run one unit through the lane's wrapper (ithica / meek)."""
        wrapper = lane.wrapper
        assert wrapper is not None
        wrapper.tag = tag
        digests = []
        try:
            for op, operands in self.units[tag]:
                digests.append(result_digest(wrapper.execute(op, *operands)))
        except MachineCheckError:
            self.scorecard.machine_checks += 1
            self.scorecard.units_crashed += 1
            self.emit(lane.core.core_id, EventKind.MACHINE_CHECK,
                       "mce in unit")
            return
        except CoreOfflineError:
            self.scorecard.units_crashed += 1
            return
        self._delivered[tag] = digest_ints(digests)

    def _execute_plain(self, lane: _Lane, tag: int) -> None:
        """Run one unit on the bare core (e2e / screen arms)."""
        core = lane.core
        digests = []
        try:
            for op, operands in self.units[tag]:
                digests.append(result_digest(core.execute(op, *operands)))
                self.stats.payload_ops += 1
        except MachineCheckError:
            self.scorecard.machine_checks += 1
            self.scorecard.units_crashed += 1
            self.emit(core.core_id, EventKind.MACHINE_CHECK, "mce in unit")
            return
        except CoreOfflineError:
            self.scorecard.units_crashed += 1
            return
        delivered = digest_ints(digests)
        if self.arm == "e2e" and _hash01(
            self.seed + 17, tag
        ) < self.config.sample_rate:
            # E11-style end-to-end check on the trusted client core,
            # before the result is delivered downstream.
            self.stats.ops_sampled += len(self.units[tag])
            self.stats.check_ops += len(self.units[tag])
            redone = digest_ints(
                result_digest(self.client_core.execute(op, *operands))
                for op, operands in self.units[tag]
            )
            if redone != delivered:
                self.stats.mismatches += 1
                self._caught.add(tag)
                self.emit(core.core_id, EventKind.APP_REPORT,
                           "e2e digest mismatch")
        self._delivered[tag] = delivered

    def _flush_reptfd(self, lane: _Lane) -> None:
        """Commit a buffered granule through the lane's replay checker."""
        if not lane.buffer:
            return
        replayer = lane.replayer
        assert replayer is not None
        replayer.pool = [lane.core] + self.free_cores(self._busy())
        replayer.tag = lane.buffer_tags[0]
        try:
            digests = replayer.run_granule(lane.buffer, tags=lane.buffer_tags)
        except (GranuleFailedError, MachineCheckError, CoreOfflineError):
            self.scorecard.units_crashed += len(lane.buffer)
        else:
            for tag, digest in zip(lane.buffer_tags, digests):
                self._delivered[tag] = digest
        lane.buffer = []
        lane.buffer_tags = []

    # -- screening (E9 reference arm) ----------------------------------

    def _run_screen(self, tick: int) -> None:
        hi = 2 ** OPERAND_BITS
        for lane in self.lanes:
            core = lane.core
            failed = False
            try:
                for _ in range(SCREEN_OPS):
                    op = UNIT_OPS[int(self._screen_rng.integers(
                        len(UNIT_OPS)
                    ))]
                    a = int(self._screen_rng.integers(hi))
                    b = int(self._screen_rng.integers(hi))
                    operands = (
                        (a,) if op == Op.LOAD or op == Op.STORE else (a, b)
                    )
                    self.stats.check_ops += 1
                    got = core.execute(op, *operands)
                    if result_digest(got) != result_digest(
                        golden_execute(op, *operands)
                    ):
                        failed = True
            except MachineCheckError:
                self.scorecard.machine_checks += 1
                failed = True
            except CoreOfflineError:
                continue
            if failed:
                self.scorecard.screen_fails += 1
                self._confessed.add(core.core_id)
                self.emit(core.core_id, EventKind.SCREEN_FAIL,
                           f"battery at tick {tick}")

    # -- detection loop ------------------------------------------------

    def replace_quarantined(self) -> None:
        quarantined = self.scorecard.quarantine_tick
        checker = self.checker_core
        if checker is not None and checker.core_id in quarantined:
            self._replace_checker()
        for lane in self.lanes:
            if lane.core.core_id in quarantined:
                self._replace_lane(lane)

    def _dark(self, lane: _Lane) -> bool:
        """No core left to run this lane on — or to check it on."""
        quarantined = self.scorecard.quarantine_tick
        checker = self.checker_core
        return lane.core.core_id in quarantined or (
            checker is not None and checker.core_id in quarantined
        )

    def _replace_checker(self) -> None:
        """Re-place the shared MEEK/RepTFD checker on a spare core.

        Lanes keep their wrappers (MEEK its unverified backlog) and are
        re-pointed at the new checker.
        """
        new_core = self.spare_core({lane.core.core_id for lane in self.lanes})
        if new_core is None:
            return  # degraded: nothing to check on, every lane is dark
        self.checker_core = new_core
        for lane in self.lanes:
            if isinstance(lane.wrapper, MeekCheckedCore):
                lane.wrapper.checker = new_core
            if lane.replayer is not None:
                lane.replayer.replay_core = new_core

    def _drain(self, lane: _Lane, budget: int | None) -> None:
        """Let the MEEK checker verify up to ``budget`` backlog entries;
        while the checker is itself down nothing gets verified."""
        if (
            isinstance(lane.wrapper, MeekCheckedCore)
            and self.checker_core is not None
            and self.checker_core.online
        ):
            lane.wrapper.flush(budget)

    def _replace_lane(self, lane: _Lane) -> None:
        """Re-place a quarantined lane on a spare core."""
        # A quarantined lane's granule buffer is abandoned: those units
        # were never committed past a checkpoint.
        if lane.buffer:
            self.scorecard.units_crashed += len(lane.buffer)
            lane.buffer = []
            lane.buffer_tags = []
        # The checker verifies the backlog before the lane moves.
        self._drain(lane, None)
        new_core = self.spare_core(self._busy())
        if new_core is None:
            return  # degraded: the lane stays dark
        lane.core = new_core
        self._lane_generation += 1
        self._equip_lane(lane)

    # -- the main loop -------------------------------------------------

    def run(self) -> InstrCheckScorecard:
        cfg = self.config
        card = self.scorecard
        next_unit = 0
        tick = 0
        while next_unit < len(self.units) or any(
            lane.buffer for lane in self.lanes
        ):
            self.begin_tick(tick)
            self._current_tick = tick
            if all(self._dark(lane) for lane in self.lanes):
                # No spare anywhere: the rest of the stream is lost.
                card.units_crashed += len(self.units) - next_unit + sum(
                    len(lane.buffer) for lane in self.lanes
                )
                break
            for lane in self.lanes:
                if self._dark(lane):
                    continue  # no spare was available
                if next_unit >= len(self.units):
                    if self.arm == "reptfd":
                        self._flush_reptfd(lane)
                    continue
                tag = next_unit
                next_unit += 1
                with obs.tracer.span(
                    "instrcheck.unit", unit=tag, core_id=lane.core.core_id
                ):
                    self._run_unit(lane, tag)
            for lane in self.lanes:
                self._drain(lane, DRAIN_PER_TICK)
            if (
                self.arm == "screen"
                and tick % cfg.screen_interval_ticks == 0
            ):
                self._run_screen(tick)
            self.end_tick(tick, confessed=self._confessed)
            tick += 1

        # End-of-run barrier: the MEEK checker drains every backlog.
        for lane in self.lanes:
            self._drain(lane, None)
        self._settle(tick)
        return card

    def _run_unit(self, lane: _Lane, tag: int) -> None:
        if self.arm in ("ithica", "meek"):
            self._execute_checked(lane, tag)
        elif self.arm == "reptfd":
            lane.buffer.append(self.units[tag])
            lane.buffer_tags.append(tag)
            if len(lane.buffer) >= GRANULE_UNITS:
                self._flush_reptfd(lane)
        else:
            self._execute_plain(lane, tag)

    def _settle(self, ticks: int) -> None:
        """Final scoring: deliveries vs golden digests vs catches."""
        card = self.scorecard
        card.units_total = len(self.units)
        card.units_delivered = len(self._delivered)
        for tag, delivered in self._delivered.items():
            wrong = delivered != self.expected[tag]
            if tag in self._caught:
                if not wrong:
                    card.flagged_clean_units += 1
            elif wrong:
                card.cees_escaped += 1
        card.cees_caught = len(self._caught)
        card.payload_ops = self.stats.payload_ops
        card.check_ops = self.stats.check_ops
        card.ops_sampled = self.stats.ops_sampled
        card.mismatches = self.stats.mismatches
        card.lag_drops = self.stats.lag_drops
        self.finish(ticks)


# ---------------------------------------------------------------------
# fleet construction for instrcheck experiments
# ---------------------------------------------------------------------

def build_instrcheck_fleet(
    n_machines: int = 2,
    cores_per_machine: int = 4,
    prevalence: float = 0.125,
    base_rate: float = 0.03,
    seed: int = 7,
) -> tuple[list[Machine], list[str]]:
    """A small fleet whose bad cores land among the worker lanes.

    ``round(prevalence * n_cores)`` cores are mercurial, placed at the
    low global indices the kernel hands to lanes first.  Defects
    alternate between the two §2 archetypes the arms disagree about:
    a *probabilistic* stuck-bit on the ALU (ITHICA can catch it — the
    duplicate run re-rolls the dice) and a *deterministic*
    operand-pattern miscomputation (ITHICA is blind — both executions
    corrupt identically; only a second core can disagree).

    Returns ``(machines, bad core ids)``.
    """
    n_cores = n_machines * cores_per_machine
    n_bad = max(0, min(round(prevalence * n_cores), cores_per_machine - 1))

    def defects_for(core_id: str, index: int) -> tuple[DefectModel, ...]:
        if not 1 <= index <= n_bad:
            return ()
        if index % 2 == 1:
            return (
                StuckBitDefect(
                    f"defect/{core_id}", bit=13, base_rate=base_rate,
                    unit=FunctionalUnit.ALU,
                ),
            )
        return (
            OperandPatternDefect(
                f"defect/{core_id}", mask=0x7, value=0x5,
                error=1 << 9, base_rate=1.0, unit=FunctionalUnit.ALU,
            ),
        )

    return build_small_fleet(
        n_machines, cores_per_machine, seed, defects_for
    )


__all__ = [
    "ARMS",
    "InstrCheckCampaign",
    "InstrCheckConfig",
    "InstrCheckScorecard",
    "build_instrcheck_fleet",
]
