"""Machines: a chip and an identity."""

from __future__ import annotations

import dataclasses

from repro.silicon.core import Chip, Core
from repro.silicon.environment import NOMINAL, OperatingPoint


@dataclasses.dataclass(slots=True)
class Machine:
    """One server in a campaign fleet.

    Attributes:
        machine_id: stable id, e.g. ``"m00017"``.
        chip: the simulated silicon.
    """

    machine_id: str
    chip: Chip

    @property
    def cores(self) -> list[Core]:
        return self.chip.cores

    @property
    def core_ids(self) -> list[str]:
        return [core.core_id for core in self.chip.cores]

    @property
    def mercurial_cores(self) -> list[Core]:
        return self.chip.mercurial_cores

    @property
    def is_mercurial(self) -> bool:
        return bool(self.chip.mercurial_cores)

    def online_cores(self) -> list[Core]:
        return [core for core in self.chip.cores if core.online]

    def set_environment(self, env: OperatingPoint = NOMINAL) -> None:
        self.chip.set_environment(env)
