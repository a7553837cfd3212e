"""The campaign kernel: one detect → quarantine → replace loop.

The paper's §6 describes *one* fleet service — signals in, suspicion,
policy, quarantine, capacity back-fill — that every workload reports
into.  :class:`Campaign` is that service for the object-fleet runners
(E15 serving, E17 serve-at-scale, E16 storage, E18 instrcheck).  A
runner subclasses it, keeps its own ``run()`` loop, brackets each tick
with :meth:`Campaign.begin_tick` (clock, chaos) and
:meth:`Campaign.end_tick` (ground truth, policy), and supplies the one
abstract hook :meth:`Campaign.replace_quarantined` plus, optionally,
the chaos hooks ``hosted_on`` / ``on_crash`` / ``on_restore``.

The kernel also picks cores: :meth:`Campaign.free_cores` lists the
online, unquarantined, unoccupied cores in fleet order;
:meth:`Campaign.place` takes the first ``n`` at construction and
:meth:`Campaign.spare_core` the first one for a replacement.  (The
slot scheduler in :mod:`repro.fleet.scheduler` is E10's model of what
quarantine strands, not a placement service.)

RNG order is part of the contract (scorecards are pinned byte-for-byte
at equal seeds): :func:`build_small_fleet` seeds ``Core`` generators
from one root stream in (machine, core) order, the trusted
``client/c00`` core takes ``seed + 1``, and a machine-level quarantine
pulls siblings in fleet order.  ``chaos`` is read at every tick, never
captured: callers assign the script after they have seen placement.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    ClassVar,
    Collection,
    Iterable,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro import obs
from repro.chaos import ChaosKind, ChaosSchedule
from repro.core.confidence import SuspicionTracker
from repro.core.events import (
    CeeEvent,
    EventKind,
    EventLog,
    Reporter,
    format_core_id,
    machine_of,
)
from repro.core.policy import Action, PolicyConfig, QuarantinePolicy
from repro.detection.signals import SignalAnalyzer, SignalAnalyzerConfig
from repro.fleet.machine import Machine
from repro.obs.forensics import MS_PER_DAY, detection_latency_summary
from repro.silicon.core import Core
from repro.silicon.defects import DefectModel


@dataclasses.dataclass(slots=True)
class CampaignScorecard:
    """The fields every campaign scorecard carries; runners extend it."""

    #: the derived properties ``to_json`` reports beside the fields
    rates: ClassVar[tuple[str, ...]] = ()

    name: str
    ticks: int = 0
    quarantine_tick: dict[str, int] = dataclasses.field(default_factory=dict)
    #: ground truth: first tick each core demonstrably corrupted
    first_corrupt_tick: dict[str, int] = dataclasses.field(default_factory=dict)
    #: per-incident stage latencies (see repro.obs.forensics)
    detection_latency_ms: dict[str, dict] = dataclasses.field(default_factory=dict)

    @staticmethod
    def percentile(values: Sequence[float], q: float) -> float:
        """``q``-th percentile of ``values``; 0.0 for an empty sample."""
        if not values:
            return 0.0
        return float(np.percentile(np.array(values), q))

    def to_json(self) -> dict:
        """Every field but the raw sample lists (reported through their
        percentiles), then the derived ``rates`` the subclass names."""
        payload = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if not isinstance(getattr(self, field.name), list)
        }
        payload.update((name, getattr(self, name)) for name in self.rates)
        return payload


def check_at_least(name: str, value: float, low: float) -> None:
    """Reject a run-config value below ``low`` (or NaN), naming the
    field: a negative tick count runs nothing and still returns a
    plausible-looking scorecard."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


class Published(NamedTuple):
    """One campaign metric, read off the scorecard at ``finish()``."""

    name: str
    kind: str  # "counter" | "histogram"
    unit: str
    help: str
    #: scorecard -> a number, a ``{label value: number}`` mapping (then
    #: ``label`` names the key) or, for a histogram, the list to observe
    view: Callable[[Any], Any]
    label: str = ""
    buckets: tuple[float, ...] | None = None


class Campaign:
    """One fleet, one chaos script, one scorecard, one policy loop."""

    #: the runner's metrics whose value *is* a scorecard field
    published: tuple[Published, ...] = ()
    #: declared span name stamped on each quarantine, if the runner has one
    quarantine_span: str | None = None

    def __init__(
        self,
        machines: list[Machine],
        scorecard: CampaignScorecard,
        policy: PolicyConfig,
        *,
        label: str,
        tick_ms: float,
        seed: int,
        weights: Mapping[EventKind, float] | None = None,
    ) -> None:
        """``label`` is the ``application`` of every emitted event;
        ``weights`` overrides the default per-kind suspicion table."""
        self.machines = machines
        self.scorecard = scorecard
        self.label = label
        self.tick_ms = tick_ms
        self.chaos = ChaosSchedule()
        self.events = EventLog()
        self._core_by_id: dict[str, Core] = {
            core.core_id: core for machine in machines for core in machine.cores
        }
        self.analyzer = SignalAnalyzer(
            tracker=SuspicionTracker(),
            config=SignalAnalyzerConfig(weights=weights) if weights else None,
        )
        self.policy = QuarantinePolicy(policy, fleet_cores=len(self._core_by_id))
        # Healthy by construction: the e2e argument's one honest endpoint.
        self.client_core = Core("client/c00", rng=np.random.default_rng(seed + 1))

        self.now_ms = 0.0
        self.burst_multiplier = 1.0
        self._burst_until = -1
        self._restore_at: dict[str, int] = {}
        self._events_seen = 0
        # Ground-truth corruption watcher: unconditional (not obs-gated)
        # so scorecards are byte-identical with obs on or off.
        self._corruption_base = {
            core_id: core.corruptions_induced
            for core_id, core in self._core_by_id.items()
        }
        obs.tracer.set_clock(lambda: self.now_ms)

    # -- hooks ---------------------------------------------------------

    def replace_quarantined(self) -> None:
        """Hook: re-place whatever sits on quarantined cores on spares."""
        raise NotImplementedError

    def hosted_on(self, core_id: str) -> Iterable[Any]:
        """Hook: the replicas a machine-check burst on this core hits."""
        return ()

    def on_crash(self, core_id: str) -> None:
        """Hook: a chaos crash is about to take ``core_id`` offline."""

    def on_restore(self, core_id: str) -> None:
        """Hook: ``core_id`` is back online after a transient crash."""

    def emit(self, core_id: str, kind: EventKind, detail: str,
             attributed: bool = True) -> None:
        """Log one event now; unattributed keeps only the machine."""
        self.events.append(
            CeeEvent(
                time_days=self.now_ms / MS_PER_DAY,
                machine_id=machine_of(core_id),
                core_id=core_id if attributed else None,
                kind=kind,
                reporter=Reporter.AUTOMATED,
                application=self.label,
                detail=detail,
            )
        )

    # -- the tick bracket ----------------------------------------------

    def begin_tick(self, tick: int) -> float:
        """Advance the clock and apply due chaos; returns ``now_ms``."""
        self.now_ms = tick * self.tick_ms
        for action in self.chaos.due(tick):
            core_id = action.core_id or ""  # fleet-wide actions name none
            core = self._core_by_id.get(core_id)
            until = tick + max(1, action.duration_ticks)
            if action.kind is ChaosKind.ACTIVATE_DEFECT:
                if core is not None:
                    core.advance_age(action.magnitude)
            elif action.kind is ChaosKind.CRASH_CORE:
                if core is not None:
                    self.on_crash(core_id)
                    core.set_online(False)
                    self._restore_at[core_id] = until
            elif action.kind is ChaosKind.MACHINE_CHECK_BURST:
                for replica in self.hosted_on(core_id):
                    replica.forced_mce_remaining += int(action.magnitude)
            elif action.kind is ChaosKind.TRAFFIC_BURST:
                self.burst_multiplier = action.magnitude
                self._burst_until = until

        # Transient crashes recover — unless the policy pulled the core.
        for core_id, restore_tick in list(self._restore_at.items()):
            if tick >= restore_tick:
                del self._restore_at[core_id]
                if core_id not in self.scorecard.quarantine_tick:
                    self._core_by_id[core_id].set_online(True)
                    self.on_restore(core_id)
        if tick >= self._burst_until:
            self.burst_multiplier = 1.0
        return self.now_ms

    def end_tick(self, tick: int, confessed: Collection[str] = ()) -> None:
        """Note ground truth, then detect → quarantine → replace;
        ``confessed`` names cores a screening battery convicted."""
        card = self.scorecard
        base = self._corruption_base
        for core_id, core in self._core_by_id.items():
            induced = core.corruptions_induced
            if induced != base[core_id]:
                base[core_id] = induced
                card.first_corrupt_tick.setdefault(core_id, tick)

        self.analyzer.ingest_all(self.events.tail(self._events_seen))
        self._events_seen = len(self.events)
        for core_id, score in self.analyzer.suspects(
            self.now_ms / MS_PER_DAY,
            threshold=self.policy.config.retest_threshold,
        ):
            if core_id not in self._core_by_id or core_id in card.quarantine_tick:
                continue
            decision = self.policy.decide(
                core_id, score, confessed=core_id in confessed
            )
            if decision.action is Action.QUARANTINE_CORE:
                self.quarantine(core_id, tick)
            elif decision.action is Action.QUARANTINE_MACHINE:
                self.quarantine(core_id, tick)
                machine_id = machine_of(core_id)
                machine = next(
                    m for m in self.machines if m.machine_id == machine_id
                )
                for sibling in machine.cores:
                    self.quarantine(sibling.core_id, tick)
        self.replace_quarantined()

    def quarantine(self, core_id: str, tick: int) -> None:
        """Pull one core: offline, stamped, its pending restore dropped."""
        if core_id in self.scorecard.quarantine_tick:
            return
        self._core_by_id[core_id].set_online(False)
        self.scorecard.quarantine_tick[core_id] = tick
        self._restore_at.pop(core_id, None)
        if self.quarantine_span is not None:
            with obs.tracer.span(
                self.quarantine_span, core_id=core_id, tick=tick
            ):
                pass

    # -- placement -----------------------------------------------------

    def free_cores(self, occupied: Collection[str]) -> list[Core]:
        """Online cores neither quarantined nor ``occupied``, in fleet
        (machine, core) order."""
        quarantined = self.scorecard.quarantine_tick
        return [
            core for core_id, core in self._core_by_id.items()
            if core.online and core_id not in quarantined
            and core_id not in occupied
        ]

    def place(self, n: int, what: str) -> list[Core]:
        """The first ``n`` free cores, for ``n`` of ``what``; a fleet
        with fewer is a configuration error."""
        check_at_least(f"number of {what}", n, 0)
        free = self.free_cores(())
        if len(free) < n:
            raise ValueError(
                f"fleet too small for {n} {what}: {len(free)} free cores"
            )
        return free[:n]

    def spare_core(self, occupied: Collection[str]) -> Core | None:
        """The first free core outside ``occupied``, or None when the
        fleet is drained (the runner degrades)."""
        free = self.free_cores(occupied)
        return free[0] if free else None

    def finish(self, ticks: int) -> None:
        """End-of-run bookkeeping every scorecard shares, then the one
        place campaign metrics are written: every ``published`` family
        is registered and takes its non-zero values off the scorecard."""
        card = self.scorecard
        card.ticks = ticks
        card.first_corrupt_tick = dict(sorted(card.first_corrupt_tick.items()))
        card.detection_latency_ms = detection_latency_summary(
            card.first_corrupt_tick, card.quarantine_tick,
            list(self.events), self.tick_ms,
        )
        for row in self.published:
            value = row.view(card)
            if row.kind == "histogram":
                histogram = obs.metrics.histogram(
                    row.name, help=row.help, unit=row.unit,
                    buckets=row.buckets,
                )
                for sample in value:
                    histogram.observe(sample)
                continue
            counter = obs.metrics.counter(
                row.name, help=row.help, unit=row.unit
            )
            if not row.label:
                if value:
                    counter.inc(value)
                continue
            for label_value, amount in value.items():
                if amount:
                    counter.inc(amount, **{row.label: label_value})


def build_small_fleet(
    n_machines: int,
    cores_per_machine: int,
    seed: int | np.random.Generator,
    defects_for: Callable[[str, int], Sequence[DefectModel]],
) -> tuple[list[Machine], list[str]]:
    """The object fleet every campaign experiment runs on.

    ``defects_for(core_id, flat_index)`` gives one core's defects
    (empty = healthy).  ``seed`` may be a generator the caller already
    drew bad slots from; each core's stream is then drawn from it in
    (machine, core) order.  Returns (machines, defective core ids).
    """
    check_at_least("cores_per_machine", cores_per_machine, 1)
    root = np.random.default_rng(seed)
    machines: list[Machine] = []
    bad_core_ids: list[str] = []
    for m in range(n_machines):
        machine_id = f"m{m:05d}"
        cores = []
        for c in range(cores_per_machine):
            core_id = format_core_id(machine_id, c)
            defects = defects_for(core_id, m * cores_per_machine + c)
            if defects:
                bad_core_ids.append(core_id)
            rng = np.random.default_rng(root.integers(2**63))
            cores.append(Core(core_id, defects=defects, rng=rng))
        machines.append(Machine(machine_id, cores))
    return machines, bad_core_ids


__all__ = [
    "Campaign",
    "CampaignScorecard",
    "Published",
    "build_small_fleet",
    "check_at_least",
]
