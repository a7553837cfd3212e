"""Machines: an identity and the cores it holds."""

from __future__ import annotations

import dataclasses

from repro.silicon.core import Core


@dataclasses.dataclass(slots=True)
class Machine:
    """One server in a campaign fleet.

    Attributes:
        machine_id: stable id, e.g. ``"m00017"``.
        cores: the simulated cores in index order; core ``i`` is named
            ``format_core_id(machine_id, i)`` (:mod:`repro.core.events`).
    """

    machine_id: str
    cores: list[Core]
