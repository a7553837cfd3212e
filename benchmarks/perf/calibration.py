"""Host-speed calibration: how the benchmark copes with a noisy box.

On the shared 2-vCPU hosts this benchmark runs on, the same pass at the
same seed takes anything from 1x to 2.5x its quiet time, in phases that
last from seconds to a minute: a neighbour contends for the core, and
wall time and CPU time inflate together.  No choice of minimum, median
or longer run makes raw host time repeat to better than 15-25 % there
(README, *Estimator*).

So every timed region is bracketed by a fixed *calibration kernel* run
in the same process — on the same core — before and after, and its
duration is divided by how much slower than :data:`REFERENCE_SECONDS`
the kernel ran.  The
result is **calibrated seconds**: the time the region would take on a
host where the kernel takes exactly the reference time.  The kernel is
plain interpreter work over a working set larger than a core's private
cache — dictionary lookups, small-object allocation, method calls, list
appends — which is what the simulator's own hot paths are made of, so a
phase that slows the one slows the other.  It uses no code of the
program under test: an optimisation there moves the pass and not the
kernel.
"""

from __future__ import annotations

import os
import struct
import time

#: the kernel's duration on the quiet reference host (2 vCPU Xeon @
#: 2.1 GHz, Python 3.11.7); only the scale of calibrated seconds
#: depends on it
REFERENCE_SECONDS = 0.0180

_TABLE_SIZE = 60_000
_LOOKUPS = 10_000
_REPEATS = 4


def host_slowdown(*kernel_runs: float) -> float:
    """How much slower than the reference host a region ran, given the
    kernel's durations around it (just before and just after)."""
    return sum(kernel_runs) / len(kernel_runs) / REFERENCE_SECONDS


class _Cell:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right

    def total(self) -> int:
        return self.left + self.right


class HostSpeed:
    """The calibration kernel and its fixed inputs."""

    def __init__(self) -> None:
        self._table = {index: 3 * index + 1 for index in range(_TABLE_SIZE)}
        self._keys = [(index * 7919) % _TABLE_SIZE for index in range(_LOOKUPS)]
        self.kernel_seconds()  # the first run pays the table's page faults

    def kernel_seconds(self, processes: int = 1) -> float:
        """Run the kernel once; its duration.

        With ``processes`` > 1, that many forked children run it at the
        same time and the slowest one's duration is returned: a pooled
        pass waits for its slowest worker, and a neighbour on the *other*
        core slows it without slowing a kernel run on this one.  Plain
        ``fork``, as the engine's own pool uses; the caller has no
        threads.
        """
        if processes > 1:
            children = []
            for _ in range(processes):
                reader, writer = os.pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        os.write(writer, struct.pack("d", self.kernel_seconds()))
                    finally:
                        os._exit(0)
                os.close(writer)
                children.append((pid, reader))
            durations = []
            for pid, reader in children:
                durations.append(struct.unpack("d", os.read(reader, 8))[0])
                os.close(reader)
                os.waitpid(pid, 0)
            return max(durations)
        table = self._table
        start = time.perf_counter()
        for _ in range(_REPEATS):  # repeats, to keep what it allocates small
            seen = {}
            pairs = []
            for key in self._keys:
                value = table[key]
                seen[key] = _Cell(value, key).total()
                pairs.append((key, value))
        return time.perf_counter() - start
