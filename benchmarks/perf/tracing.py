"""Timing wrappers the benchmark installs around ``repro``'s entry points.

The program under test carries no layer spans of its own yet, so the
traced run patches them in from here: every boundary in
:data:`BOUNDARIES` is replaced by a wrapper that times the call, and the
original object is put back afterwards (:meth:`LayerTracer.uninstall`,
checked by :meth:`LayerTracer.unrestored`).

Two kinds of boundary share one parent stack:

- *span* boundaries (a campaign's ``run``, a fleet build, a screen) are
  few per pass; each call records a span — name, start, end, parent,
  pass id — kept in memory and written out when the benchmark ends;
- *op* boundaries (``Core.execute``, ``golden_call``, a replica's
  ``serve``) run up to a million times per pass and keep only a
  (count, total ns, child ns) accumulator.

Self time of a boundary is its duration minus the time its child
boundaries cover, so the self times of all boundaries plus the time the
pass spent outside any of them add up to the pass time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

SPAN = "span"
OP = "op"

#: (layer, boundary name, kind, "module:attribute"); a dotted attribute
#: is a method patched on its class, a plain one a module-level function
#: patched in every loaded ``repro`` module that imported it by name.
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("silicon", "silicon.execute", OP, "repro.silicon.core:Core.execute"),
    ("silicon", "silicon.golden_call", OP, "repro.silicon.golden:golden_call"),
    ("silicon", "silicon.apply", OP, "repro.silicon.defects:DefectModel.apply"),
    ("workloads", "workloads.hashing", SPAN,
     "repro.workloads.hashing:hashing_workload"),
    ("workloads", "workloads.compression", SPAN,
     "repro.workloads.compression:compression_workload"),
    ("workloads", "workloads.crypto", SPAN,
     "repro.workloads.crypto:crypto_workload"),
    ("workloads", "workloads.copying", SPAN,
     "repro.workloads.copying:copying_workload"),
    ("workloads", "workloads.locking", SPAN,
     "repro.workloads.locking:locking_workload"),
    ("workloads", "workloads.vectorops", SPAN,
     "repro.workloads.vectorops:vector_workload"),
    ("workloads", "workloads.sorting", SPAN,
     "repro.workloads.sorting:sorting_workload"),
    ("workloads", "workloads.database", SPAN,
     "repro.workloads.database:database_workload"),
    ("workloads", "workloads.filesystem", SPAN,
     "repro.workloads.filesystem:filesystem_workload"),
    # the unit functions the campaigns call directly
    ("workloads", "workloads.crc64", OP, "repro.workloads.hashing:crc64"),
    ("workloads", "workloads.copy_bytes", OP,
     "repro.workloads.copying:copy_bytes"),
    ("workloads", "workloads.expand_key", OP,
     "repro.workloads.crypto:expand_key"),
    ("workloads", "workloads.encrypt_block", OP,
     "repro.workloads.crypto:encrypt_block"),
    ("workloads", "workloads.decrypt_block", OP,
     "repro.workloads.crypto:decrypt_block"),
    ("mitigation", "mitigation.ithica_execute", OP,
     "repro.mitigation.instrcheck.policies:IthicaCheckedCore.execute"),
    ("mitigation", "mitigation.instrcheck_run", SPAN,
     "repro.mitigation.instrcheck.campaign:InstrCheckCampaign.run"),
    ("serving", "serving.fleet_build", SPAN,
     "repro.serving.campaign:build_serving_fleet"),
    ("serving", "serving.scale_fleet_build", SPAN,
     "repro.serving.scale_campaign:build_scale_fleet"),
    ("serving", "serving.campaign_run", SPAN,
     "repro.serving.campaign:ServingCampaign.run"),
    ("serving", "serving.scale_run", SPAN,
     "repro.serving.scale_campaign:ServeScaleCampaign.run"),
    ("serving", "serving.serve", OP,
     "repro.serving.service:ServerReplica.serve"),
    ("storage", "storage.fleet_build", SPAN,
     "repro.storage.campaign:build_storage_fleet"),
    ("storage", "storage.run", SPAN,
     "repro.storage.campaign:StorageCampaign.run"),
    ("storage", "storage.put", OP, "repro.storage.store:ReplicatedKVStore.put"),
    ("storage", "storage.get", OP, "repro.storage.store:ReplicatedKVStore.get"),
    ("storage", "storage.scrub_round", OP,
     "repro.storage.scrub:Scrubber.scrub_round"),
    ("storage", "storage.sync_round", OP,
     "repro.storage.antientropy:AntiEntropy.sync_round"),
    ("detection", "detection.ingest", OP,
     "repro.detection.signals:SignalAnalyzer.ingest"),
    ("detection", "detection.suspects", OP,
     "repro.detection.signals:SignalAnalyzer.suspects"),
    ("detection", "core.decide", OP,
     "repro.core.policy:QuarantinePolicy.decide"),
    ("detection", "detection.distill", SPAN,
     "repro.detection.fleetscreen:distill"),
    ("detection", "detection.screen", SPAN,
     "repro.detection.fleetscreen:FleetScreener.screen"),
    ("detection", "detection.ridealong_run", SPAN,
     "repro.detection.fleetscreen:RideAlongCampaign.run"),
    ("fleet", "fleet.schedule", OP,
     "repro.fleet.scheduler:FleetScheduler.schedule"),
    ("fleet", "fleet.build_columns", SPAN,
     "repro.fleet.population:FleetBuilder.build_columns"),
    ("fleet", "fleet.sim_run", SPAN,
     "repro.fleet.simulator:FleetSimulator.run"),
    ("fleet", "fleet.publish", SPAN, "repro.fleet.shm:publish"),
    ("fleet", "fleet.attach", SPAN, "repro.fleet.shm:attach"),
    ("engine", "engine.run_tasks", SPAN, "repro.engine.runner:run_tasks"),
    ("engine", "engine.run_trials", SPAN, "repro.engine.runner:run_trials"),
    ("engine", "engine.run_fleet_trials", SPAN,
     "repro.engine.runner:run_fleet_trials"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in BOUNDARIES))


class LayerTracer:
    """Installs, times and removes the boundaries of :data:`BOUNDARIES`."""

    def __init__(self) -> None:
        #: closed spans of every traced pass so far, in completion order
        self.spans: list[dict] = []
        #: label stamped on each span; the worker sets it per pass
        self.pass_id = ""
        self._layer_of = {name: layer for layer, name, _, _ in BOUNDARIES}
        #: boundary name -> [calls, total ns, ns inside child boundaries]
        self._cells: dict[str, list[int]] = {
            name: [0, 0, 0] for name in self._layer_of
        }
        self._child_ns: list[int] = []
        self._open_spans: list[int] = []
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- install / remove ---------------------------------------------

    def install(self) -> None:
        """Patch every boundary; a no-op when already installed."""
        if self._patches:
            return
        for _layer, name, kind, target in BOUNDARIES:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = vars(owner)[attr]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = [
                    loaded for loaded_name, loaded in sorted(sys.modules.items())
                    if loaded is not None
                    and loaded_name.partition(".")[0] == "repro"
                    and vars(loaded).get(attr) is original
                ]
            wrapper = self._boundary(original, name, kind)
            for patched in owners:
                setattr(patched, attr, wrapper)
                self._patches.append((patched, attr, original))

    def uninstall(self) -> None:
        """Put every original object back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Places where a wrapper, not the original object, is bound now."""
        owners: dict[str, object] = {
            name: module for name, module in sys.modules.items()
            if module is not None and name.partition(".")[0] == "repro"
        }
        for _layer, _name, _kind, target in BOUNDARIES:
            module_name, _, path = target.partition(":")
            owner_path = path.rpartition(".")[0]
            if owner_path and module_name in owners:
                owners[f"{module_name}:{owner_path}"] = getattr(
                    owners[module_name], owner_path)
        return sorted(
            f"{owner_name}.{attr}"
            for owner_name, owner in owners.items()
            for attr, value in vars(owner).items()
            if getattr(value, "__perf_boundary__", False)
        )

    # -- the wrappers --------------------------------------------------

    def _boundary(self, fn: Callable, name: str, kind: str) -> Callable:
        cell = self._cells[name]
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed

        timed.__perf_boundary__ = True
        if kind == OP:
            return timed

        layer = self._layer_of[name]
        open_spans = self._open_spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = open_spans[-1] if open_spans else None
            open_spans.append(span_id)
            start = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                open_spans.pop()
                self.spans.append({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "pass": self.pass_id,
                    "start_ns": start, "end_ns": clock(),
                })

        spanned.__perf_boundary__ = True
        return spanned

    # -- per-pass accounting ------------------------------------------

    def reset(self) -> None:
        """Zero the accumulators (the spans are kept)."""
        for cell in self._cells.values():
            cell[:] = (0, 0, 0)

    def boundaries(self) -> dict[str, dict[str, int]]:
        """Calls, total and self nanoseconds per boundary since reset."""
        return {
            name: {"calls": cell[0], "total_ns": cell[1],
                   "self_ns": cell[1] - cell[2]}
            for name, cell in self._cells.items()
        }

    def layer_self_ns(self) -> dict[str, int]:
        """Self nanoseconds per layer since the last reset."""
        out = dict.fromkeys(LAYERS, 0)
        for name, cell in self._cells.items():
            out[self._layer_of[name]] += cell[1] - cell[2]
        return out
