"""The worker process: one workload, driven over a JSON-lines pipe.

The driver (:mod:`benchmarks.perf.cli`) starts one cold worker per
workload and times the start: interpreter start, ``repro`` imports and
the workload's fixture all happen before the ``ready`` line below, and
no pass has run by then.  A second line follows with the host slowdown
the calibration kernel reads right then, so the driver can express the
start in calibrated seconds.  After that the worker answers requests, one JSON object per
line on stdin, one reply per line on stdout:

- ``{"cmd": "round", "seed", "passes", "traced", "obs", "workers"}``
  runs ``passes`` passes of the workload at one seed and replies with
  the pass records and the worker's peak memory so far;
- ``{"cmd": "drives", "seed"}`` runs the isolated per-layer drives;
- ``{"cmd": "exit"}`` replies with the spans the traced passes recorded
  (the driver writes them out when the benchmark ends) and exits.

Anything the program under test prints goes to stderr, so stdout
carries the protocol only.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

from benchmarks.perf.calibration import HostSpeed, host_slowdown

def _own_peak_rss_kib() -> int:
    """This process's resident-set high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss``
    across ``exec``, so a worker would report the resident set of the
    driver that spawned it whenever that was the larger one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest pool child
    (the pool forks and never execs, so its ``ru_maxrss`` is its own)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(_own_peak_rss_kib(), children) / 1024


def _cpu_seconds() -> float:
    times = os.times()
    return (
        times.user + times.system
        + times.children_user + times.children_system
    )


class Worker:
    """Holds one workload's fixture and runs rounds of passes on it."""

    def __init__(self, workload_name: str, seed: int) -> None:
        # imported here, not at module level: these imports *are* the
        # set-up cost the driver times
        import numpy
        from repro import obs
        from repro.engine import effective_workers
        from repro.fleet import shm
        from repro.silicon.golden import golden_cache_info

        from benchmarks.perf.tracing import LayerTracer
        from benchmarks.perf.workloads import POOL_WORKERS, WORKLOADS

        self._obs = obs
        self._shm = shm
        self._memo_info = golden_cache_info
        self.workload = WORKLOADS[workload_name]
        self.fixture = self.workload.build(seed)
        self.tracer = LayerTracer()
        self.host_speed: HostSpeed | None = None
        self.host = {
            "nproc": os.cpu_count() or 1,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "engine.effective_workers": effective_workers(POOL_WORKERS),
        }

    def kernel_seconds(self, processes: int = 1) -> float:
        """One run of the calibration kernel, in this process: on the
        core the passes run on, which the driver's process is not."""
        if self.host_speed is None:
            # after ``ready``: the kernel's table is not set-up cost
            self.host_speed = HostSpeed()
        return self.host_speed.kernel_seconds(processes)

    # -- requests ------------------------------------------------------

    def round(
        self, seed: int, passes: int, traced: bool = False,
        obs: bool = True, workers: int | None = None,
    ) -> dict:
        """Run ``passes`` passes at ``seed``; one record per pass.

        GC and the observability registries are reset between passes,
        outside the timed region; GC is off inside it and during the
        calibration kernel runs that bracket it.
        """
        if workers is None:
            workers = self.workload.pool_width
        obs_was_on = self._obs.enabled()
        self._obs.set_enabled(obs)
        if traced:
            self.tracer.install()
        records = []
        try:
            for index in range(passes):
                records.append(self._pass(seed, workers, index, traced))
        finally:
            self.tracer.uninstall()
            self._obs.set_enabled(obs_was_on)
        return {"passes": records, "peak_rss_mb": _peak_rss_mb()}

    def _pass(self, seed: int, workers: int, index: int, traced: bool) -> dict:
        self._obs.tracer.reset()
        self._obs.metrics.reset()
        self.tracer.reset()
        self.tracer.pass_id = f"{self.workload.name}/seed{seed}/pass{index}"
        gc.collect()
        gc.disable()
        try:
            # a pooled pass is calibrated at the pool's width
            kernel_before = self.kernel_seconds(workers)
            memo_before = self._memo_info()
            cpu_before = _cpu_seconds()
            result = self.workload.run(self.fixture, seed, workers)
            cpu_s = _cpu_seconds() - cpu_before
            slowdown = host_slowdown(
                kernel_before, self.kernel_seconds(workers))
        except Exception:  # a failed pass is a counted failure, not a crash
            return {"error": traceback.format_exc()}
        finally:
            gc.enable()
        record = {
            "seconds": result.seconds,
            "slowdown": slowdown,
            "calibrated_s": result.seconds / slowdown,
            "work": result.work,
            "fingerprint": result.fingerprint,
            "counts": result.counts,
            "cpu_s": cpu_s,
            "memo_hits": self._memo_info().hits - memo_before.hits,
            "memo_misses": self._memo_info().misses - memo_before.misses,
            "obs.spans": len(self._obs.tracer.spans()),
            "obs.series": sum(
                len(entry["series"])
                for entry in self._obs.metrics.snapshot().values()
            ),
            # this worker's segments only: the prefix carries its pid
            "leaked_segments": self._shm.leaked_segments(
                f"{self._shm.SEGMENT_PREFIX}{os.getpid()}_"
            ),
        }
        if traced:
            record["boundaries"] = self.tracer.boundaries()
            record["layer_self_ns"] = self.tracer.layer_self_ns()
        return record

    def drives(self, seed: int) -> dict[str, float]:
        """The isolated per-layer drives (see :mod:`.drives`)."""
        from benchmarks.perf.drives import run_drives

        return run_drives(seed)

    def exit(self) -> dict:
        """Hand over the recorded spans; the serve loop stops after this."""
        return {
            "spans": self.tracer.spans,
            "unrestored": self.tracer.unrestored(),
        }


def serve(workload_name: str, seed: int) -> int:
    """Worker entry point: announce ``ready``, then answer requests."""
    protocol = sys.stdout
    sys.stdout = sys.stderr
    started = time.perf_counter()
    worker = Worker(workload_name, seed)
    ready = {"ready": True, "host": worker.host,
             "build_s": time.perf_counter() - started}
    print(json.dumps(ready), file=protocol, flush=True)
    after_start = host_slowdown(worker.kernel_seconds(), worker.kernel_seconds())
    print(json.dumps({"slowdown": after_start}), file=protocol, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        command = request.pop("cmd")
        if command not in ("round", "drives", "exit"):
            raise ValueError(f"unknown worker command {command!r}")
        reply = getattr(worker, command)(**request)
        print(json.dumps(reply), file=protocol, flush=True)
        if command == "exit":
            break
    return 0
