"""Quorum replication against mercurial replicas (§8's BFT pointer).

"Byzantine fault tolerance has been proposed as a means for providing
resilience against arbitrary non-fail-stop errors; BFT might be
applicable to CEEs in some cases."

A mercurial core is a natural (if unintentional) Byzantine replica: it
returns arbitrary wrong answers while staying live.  This module
implements the client-side quorum pattern: ``n = 3f + 1`` replicas each
execute every command on their own core and return a result
certificate (a digest of the post-state); the client commits a result
once ``f + 1`` matching certificates arrive — a matching quorum is
guaranteed to contain at least one honest replica, so a committed
result is correct as long as at most ``f`` replicas are mercurial.

This is deliberately the *state-machine-safety* slice of BFT (no view
changes or leader election — there is no network or asynchrony in the
simulation to defend against); what the experiment measures is the §8
question: the cost multiple (n executions per command) versus the
corruption exposure with up to f mercurial replicas.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Sequence

from repro.silicon.core import Core
from repro.silicon.errors import MachineCheckError

#: quorum dissents that make a replica a suspect
MIN_DISSENTS = 2


class QuorumError(RuntimeError):
    """No f+1 matching certificates: safety cannot be established."""


@dataclasses.dataclass(frozen=True)
class Commit:
    """A committed command result."""

    command_index: int
    digest: tuple
    certifying_replicas: tuple[int, ...]
    dissenting_replicas: tuple[int, ...]


@dataclasses.dataclass
class BftStats:
    """Command/execution/dissent tallies for one replicated log run."""

    commands: int = 0
    executions: int = 0
    dissents: int = 0

    @property
    def cost_factor(self) -> float:
        if self.commands == 0:
            return 1.0
        return self.executions / self.commands


class QuorumReplicatedService:
    """An n = 3f+1 replicated key-value state machine.

    Commands are ``command(core, state) -> state`` closures whose
    arithmetic routes through the replica's core.  State digests are
    canonical sorted item tuples (host-side — the certificate channel
    is assumed reliable; it is the *execution* that is Byzantine here).
    """

    def __init__(self, cores: Sequence[Core], f: int = 1):
        if f < 1:
            raise ValueError("f must be >= 1")
        if len(cores) != 3 * f + 1:
            raise ValueError(f"need exactly 3f+1 = {3 * f + 1} replicas")
        self.cores = list(cores)
        self.f = f
        self.states: list[dict[str, int]] = [{} for _ in cores]
        self.stats = BftStats()
        self.commits: list[Commit] = []
        self._dissent_counts: collections.Counter = collections.Counter()

    @staticmethod
    def _digest(state: dict[str, int]) -> tuple:
        return tuple(sorted(state.items()))

    def submit(
        self, command: Callable[[Core, dict[str, int]], dict[str, int]]
    ) -> dict[str, int]:
        """Execute a command on every replica and commit by quorum.

        Returns the committed state.

        Raises:
            QuorumError: fewer than f+1 replicas agreed on any digest
                (more than f replicas are faulty — outside the model).
        """
        self.stats.commands += 1
        certificates: dict[tuple, list[int]] = {}
        new_states: list[dict[str, int] | None] = []
        for index, core in enumerate(self.cores):
            self.stats.executions += 1
            try:
                state = command(core, dict(self.states[index]))
            except MachineCheckError:
                new_states.append(None)  # fail-noisy replica abstains
                continue
            new_states.append(state)
            certificates.setdefault(self._digest(state), []).append(index)

        if not certificates:
            raise QuorumError("every replica failed")
        digest, certifiers = max(
            certificates.items(), key=lambda item: len(item[1])
        )
        if len(certifiers) < self.f + 1:
            raise QuorumError(
                f"largest certificate has {len(certifiers)} matching "
                f"replicas; need {self.f + 1}"
            )
        committed = dict(digest)
        dissenters = tuple(
            index for index in range(len(self.cores))
            if index not in certifiers
        )
        for index in dissenters:
            self._dissent_counts[index] += 1
            self.stats.dissents += 1
        # All replicas adopt the committed state (state transfer).
        self.states = [dict(committed) for _ in self.cores]
        commit = Commit(
            command_index=self.stats.commands - 1,
            digest=digest,
            certifying_replicas=tuple(certifiers),
            dissenting_replicas=dissenters,
        )
        self.commits.append(commit)
        return committed

    def suspect_replicas(self) -> list[int]:
        """Recidivist dissenters — BFT as a CEE *detector* for free.

        A replica that lands outside the quorum :data:`MIN_DISSENTS`
        times or more is either mercurial or partitioned; in this
        simulation there are no partitions, so dissent recidivism is a
        high-precision signal.
        """
        return [
            index
            for index, count in self._dissent_counts.most_common()
            if count >= MIN_DISSENTS
        ]
