"""Unified observability: metrics registry, trace spans, forensics.

The paper's core argument is that corrupt execution errors stay
invisible until the fleet is instrumented for them (§3: automated
screening only overtook user reports once telemetry existed).  This
package is that instrumentation layer for the whole repo — every
subsystem (silicon, fleet, detection, serving, storage, engine) emits
into one process-local registry and one tracer, so cross-layer
questions ("which core caused this SLO breach, and how long did the
suspicion signal take to reach quarantine?") stop requiring manual
archaeology.

Components
----------
- :mod:`repro.obs.registry` — counters / gauges / histograms with
  labeled series, bounded cardinality, snapshot/merge for the process
  pool.  Singleton: :data:`metrics`.
- :mod:`repro.obs.spans` — context-manager trace spans with ids derived
  deterministically from the trial seed.  Singleton: :data:`tracer`.
- :mod:`repro.obs.export` — Prometheus-text and JSON exporters
  (``repro metrics``).
- :mod:`repro.obs.forensics` — per-incident timeline reconstruction:
  first corrupt op → first signal → quarantine, with per-stage
  latencies (``repro trace``, E15/E16 scorecards).

The no-op mode
--------------
``REPRO_OBS=off`` (or ``0``/``false``/``no``) disables everything, and
the switch lives in exactly one place: every mutator
(``Counter.inc``, ``Gauge.set``, ``Histogram.observe``) returns on the
registry's flag and :meth:`Tracer.span` hands out a shared null span.
Call sites therefore emit unconditionally — no cached flags, no
``if enabled`` forks — and the off mode costs one no-op call per site,
measured against the on mode as the benchmark's
``obs.on_overhead_pct`` (``benchmarks/perf``).  The only outside reader
of the flag is ``engine.runner.run_trials``, where it decides whether
snapshots cross the process pool at all.  Observability never touches
an RNG or a control-flow decision: campaign scorecards are
byte-identical with obs on or off (pinned by
``tests/test_obs_parity.py``).
"""

from __future__ import annotations

import os

from repro.obs.registry import (  # noqa: F401  (re-exported API)
    CardinalityError,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MAX_LABEL_SETS,
    MetricsRegistry,
)
from repro.obs.spans import Span, Tracer  # noqa: F401

#: environment variable gating the whole subsystem
ENV_VAR = "REPRO_OBS"

_OFF_VALUES = frozenset({"off", "0", "false", "no"})


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "on").strip().lower() not in _OFF_VALUES


#: the process-wide metrics registry
metrics = MetricsRegistry(enabled=_env_enabled())

#: the process-wide tracer
tracer = Tracer(enabled=metrics.enabled)


def enabled() -> bool:
    """Is observability on for this process?"""
    return metrics.enabled


def set_enabled(flag: bool) -> None:
    """Flip observability for this process (and future pool workers).

    Takes effect at once for every existing object: emission sites hold
    no copy of the flag.  Also writes :data:`ENV_VAR` so spawned worker
    processes inherit the setting even under start methods that
    re-import instead of forking.
    """
    metrics.enabled = bool(flag)
    tracer.enabled = bool(flag)
    os.environ[ENV_VAR] = "on" if flag else "off"


__all__ = [
    "CardinalityError",
    "Counter",
    "DEFAULT_BUCKETS",
    "ENV_VAR",
    "Gauge",
    "Histogram",
    "MAX_LABEL_SETS",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "enabled",
    "metrics",
    "set_enabled",
    "tracer",
]
