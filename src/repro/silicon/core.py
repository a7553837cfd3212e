"""The simulated core: the single choke point where CEEs happen.

Every primitive operation performed by any workload in this repository
executes through :meth:`Core.execute`.  A healthy core returns the
golden result; a mercurial core lets each of its defects perturb the
result.  The core keeps *ground-truth* counters (operations executed,
corruptions induced, machine checks raised) which experiments use to
score detectors — the detectors themselves never see this ground truth,
matching the paper's black-box situation ("we have observations of the
form 'this code has miscomputed (or crashed) on that core'").
"""

from __future__ import annotations

from typing import AbstractSet, Collection, Sequence

import numpy as np

from repro import obs
from repro.silicon.defects import DefectModel, MachineCheckDefect
from repro.silicon.environment import NOMINAL, OperatingPoint
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.golden import (
    golden_cache_enabled,
    golden_call,
    golden_execute,
)

# Observability is touched only on the rare corruption / machine-check
# branches — never on the per-op fast path (the benchmark's
# ``silicon.execute_*_ns`` rows).  Handles are module-level because Core
# uses __slots__ and fleets hold hundreds of thousands of instances.
_OBS_CORRUPTIONS = obs.metrics.counter(
    "silicon_corruptions_total",
    help="defect-induced wrong results (ground truth)", unit="ops",
)
_OBS_MCES = obs.metrics.counter(
    "silicon_machine_checks_total",
    help="fail-noisy defects that raised an MCE (ground truth)",
    unit="events",
)


#: a healthy core's target set; shared so a fleet of healthy cores
#: holds one object, not one each
_NO_OPS: frozenset[str] = frozenset()


class Core:
    """One hardware thread of execution, possibly mercurial.

    Args:
        core_id: stable identifier, e.g. ``"m0017/c05"``.
        defects: defect models afflicting this core (empty = healthy).
        env: initial operating point.
        rng: random generator used for probabilistic defects; a healthy
            core never draws from it, so construction is lazy — fleets
            of hundreds of thousands of healthy cores never pay for a
            Generator each.
        age_days: current age since deployment, drives aging profiles.
    """

    __slots__ = (
        "core_id", "_defects", "_targeted", "env", "_rng", "age_days", "online",
        "ops_executed", "corruptions_induced", "machine_checks_raised",
    )

    def __init__(
        self,
        core_id: str,
        defects: Sequence[DefectModel] = (),
        env: OperatingPoint = NOMINAL,
        rng: np.random.Generator | None = None,
        age_days: float = 0.0,
    ):
        self.core_id = core_id
        self._defects = tuple(defects)
        for defect in self._defects:
            if isinstance(defect, MachineCheckDefect):
                defect.bind_core(core_id)
        # Every op a defect of this core can act on.  Frozen here: the
        # defect tuple is immutable and nothing rebinds a defect's
        # ``target_ops`` after construction, so an op outside this set
        # is golden on this core for life — no ``apply``, no rng draw.
        self._targeted = (
            frozenset().union(*(d.target_ops for d in self._defects))
            if self._defects else _NO_OPS
        )
        self.env = env
        self._rng = rng
        self.age_days = age_days
        self.online = True

        # Ground truth accounting (never visible to detectors).
        self.ops_executed = 0
        self.corruptions_induced = 0
        self.machine_checks_raised = 0

    @property
    def rng(self) -> np.random.Generator:
        """Defect randomness source, created on first use."""
        rng = self._rng
        if rng is None:
            # lazy fallback for cores built without an rng; trial paths
            # inject theirs
            rng = self._rng = np.random.default_rng(0)
        return rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._rng = value

    # -- identity ------------------------------------------------------

    @property
    def defects(self) -> tuple[DefectModel, ...]:
        """This core's defect models (empty for a healthy core)."""
        return self._defects

    @property
    def is_mercurial(self) -> bool:
        """Ground truth: does this core carry any defect at all?"""
        return bool(self._defects)

    # -- environment / lifecycle ---------------------------------------

    def set_environment(self, env: OperatingPoint) -> None:
        """Move the core to a new (f, V, T) operating point."""
        self.env = env

    def advance_age(self, days: float) -> None:
        """Age the core (drives onset and escalation)."""
        if days < 0:
            raise ValueError("cannot get younger")
        self.age_days += days

    def set_online(self, online: bool) -> None:
        """Mark the core schedulable (True) or quarantined/drained."""
        self.online = online

    # -- execution ------------------------------------------------------

    def execute(self, op: str, *operands):
        """Execute one primitive operation, applying any defects.

        Returns the (possibly corrupted) result.

        Raises:
            CoreOfflineError: the core has been quarantined/drained.
            MachineCheckError: a fail-noisy defect fired.
        """
        if not self.online:
            raise CoreOfflineError(self.core_id)
        self.ops_executed += 1
        result = golden_call(op, operands)
        if op not in self._targeted:
            return result
        golden = result
        rng = self.rng
        for defect in self._defects:
            try:
                result = defect.apply(
                    op, operands, result, self.env, self.age_days, rng
                )
            except MachineCheckError:
                self.machine_checks_raised += 1
                _OBS_MCES.inc()
                raise
        if result != golden:
            self.corruptions_induced += 1
            _OBS_CORRUPTIONS.inc()
        return result

    def credit_untargeted(self, ops: AbstractSet[str], n_ops: int) -> bool:
        """Charge ``n_ops`` executions of ``ops`` in one step, if no defect can act.

        The library primitives (``workloads.hashing``/``crypto``/
        ``compression``/``copying``) ask this before a sequential
        stream, or before each segment of one when only some of its ops
        are free: on True they have been charged ``n_ops`` on
        ``ops_executed`` and compute the segment with a host-speed
        golden kernel; on False they must issue every op through
        :meth:`execute`.  True only for a plain ``Core`` (a
        subclass may override ``execute``), online, with the golden
        memo switch on (off forces the per-op reference path) and
        ``ops`` disjoint from every defect's ``target_ops``.  Such ops
        return the golden result and never touch the rng, so counters,
        results and rng state equal the per-op path's exactly.  A
        targeted op stays per-op even before defect onset, where
        ``apply`` still draws.

        Raises:
            CoreOfflineError: the core is offline and ``n_ops > 0`` —
                where the first per-op ``execute`` would have raised.
        """
        if (
            type(self) is not Core
            or not golden_cache_enabled()
            or not self._targeted.isdisjoint(ops)
        ):
            return False
        if not self.online:
            if n_ops > 0:
                raise CoreOfflineError(self.core_id)
            return False
        self.ops_executed += n_ops
        return True

    def credit_quiet(self, op: str, values: Collection[int]) -> bool:
        """Charge one ``op`` per operand in ``values`` in one step, if
        every defect is :meth:`~DefectModel.quiet` on all of them.

        :meth:`credit_untargeted` for a stage of one-operand lookups
        whose op a defect targets only for some operands (an S-box swap
        hits 2 of 256 bytes): on True the caller computes the stage
        from the golden table.  The same guards hold, and so does the
        same exactness argument: a quiet defect's ``apply`` returns the
        golden result without a draw, so each defect in turn sees the
        golden result, no corruption is counted and the rng is not
        touched.  An untargeted ``op`` is quiet on every defect, so this
        subsumes :meth:`credit_untargeted` for a one-op stage.

        Raises:
            CoreOfflineError: the core is offline and ``values`` is not
                empty — where the first per-op ``execute`` would have
                raised.
        """
        if (
            type(self) is not Core
            or not golden_cache_enabled()
            or op in self._targeted and not all(
                defect.quiet(op, values) for defect in self._defects
            )
        ):
            return False
        if not self.online:
            if values:
                raise CoreOfflineError(self.core_id)
            return False
        self.ops_executed += len(values)
        return True

    def golden(self, op: str, *operands):
        """Defect-free result; the oracle used by ground-truth scoring."""
        return golden_execute(op, *operands)

    def effective_rate(self, op: str) -> float:
        """Analytic per-execution corruption probability for ``op`` now."""
        total = 0.0
        for defect in self._defects:
            total += defect.effective_rate(op, self.env, self.age_days)
        return min(total, 1.0)

    def mean_rate(self, op_mix: dict[str, float]) -> float:
        """Analytic expected corruptions per op under an operation mix."""
        total = 0.0
        for defect in self._defects:
            total += defect.mean_rate(op_mix, self.env, self.age_days)
        return min(total, 1.0)

    def __repr__(self) -> str:
        kind = "mercurial" if self.is_mercurial else "healthy"
        return f"<Core {self.core_id} ({kind}, {len(self._defects)} defects)>"
