"""Declared metric and span names: the observability interface registry.

Every metric family and span name the framework emits through the
:data:`repro.obs.metrics` / :data:`repro.obs.tracer` singletons is
declared here as a constant.  ``tests/test_invariants.py`` holds the
names emitted across ``src/repro`` equal to the names declared here, so
a typo'd name (``serving_request_total`` vs ``serving_requests_total``)
or a constant nothing emits any more fails a test instead of silently
shipping a metric no dashboard, alert, or OBSERVABILITY.md entry knows
about.  The docs-coverage tests (``tests/test_docs.py``) close the
loop: every name here must appear in OBSERVABILITY.md.

Adding a metric or span is therefore three edits, each machine-checked:
declare the constant here (a ``SPAN_`` prefix makes it a span;
:data:`METRIC_NAMES` / :data:`SPAN_NAMES` are derived from the
constants, never listed by hand), emit it — as a
:class:`repro.campaign.Published` row when the value is a scorecard
field, at the call site otherwise — and document it in OBSERVABILITY.md.
"""

from __future__ import annotations

# -- metric families --------------------------------------------------

SILICON_CORRUPTIONS_TOTAL = "silicon_corruptions_total"
SILICON_MACHINE_CHECKS_TOTAL = "silicon_machine_checks_total"

FLEET_TICKS_TOTAL = "fleet_ticks_total"
FLEET_EVENTS_TOTAL = "fleet_events_total"
FLEET_QUARANTINES_TOTAL = "fleet_quarantines_total"
FLEET_DETECTION_LATENCY_DAYS = "fleet_detection_latency_days"

DETECTION_CONFUSION = "detection_confusion"
DETECTION_ISOLATIONS_TOTAL = "detection_isolations_total"

SERVING_REQUESTS_TOTAL = "serving_requests_total"
SERVING_LATENCY_MS = "serving_latency_ms"
SERVING_CORRUPT_ESCAPES_TOTAL = "serving_corrupt_escapes_total"
SERVING_CORRUPT_CAUGHT_TOTAL = "serving_corrupt_caught_total"
SERVING_QUARANTINES_TOTAL = "serving_quarantines_total"
SERVING_HEDGES_TOTAL = "serving_hedges_total"
SERVING_RETRIES_TOTAL = "serving_retries_total"
SERVING_RETRY_BUDGET_EXHAUSTED_TOTAL = "serving_retry_budget_exhausted_total"
SERVING_STALE_SERVED_TOTAL = "serving_stale_served_total"
SERVING_SHARD_DEGRADED_TOTAL = "serving_shard_degraded_total"
SERVING_AUTOSCALE_ACTIONS_TOTAL = "serving_autoscale_actions_total"

INSTRCHECK_OPS_CHECKED_TOTAL = "instrcheck_ops_checked_total"
INSTRCHECK_MISMATCHES_TOTAL = "instrcheck_mismatches_total"
INSTRCHECK_LAG_DROPS_TOTAL = "instrcheck_lag_drops_total"
INSTRCHECK_REPLAYS_TOTAL = "instrcheck_replays_total"
INSTRCHECK_QUARANTINES_TOTAL = "instrcheck_quarantines_total"

FLEETSCREEN_SCREENS_TOTAL = "fleetscreen_screens_total"
FLEETSCREEN_CONFESSIONS_TOTAL = "fleetscreen_confessions_total"
FLEETSCREEN_BUDGET_SKIPS_TOTAL = "fleetscreen_budget_skips_total"
FLEETSCREEN_MACHINE_SECONDS = "fleetscreen_machine_seconds"

STORAGE_WRITES_TOTAL = "storage_writes_total"
STORAGE_READS_TOTAL = "storage_reads_total"
STORAGE_DURABLE_ESCAPES_TOTAL = "storage_durable_escapes_total"
STORAGE_REPAIRS_TOTAL = "storage_repairs_total"
STORAGE_REPAIR_LATENCY_MS = "storage_repair_latency_ms"
STORAGE_QUARANTINES_TOTAL = "storage_quarantines_total"

# -- span names -------------------------------------------------------

SPAN_ENGINE_TRIAL = "engine.trial"
SPAN_DETECTION_QUARANTINE = "detection.quarantine"
SPAN_SERVING_SERVE = "serving.serve"
SPAN_SERVING_REQUEST = "serving.request"
SPAN_SERVING_QUARANTINE = "serving.quarantine"
SPAN_SERVING_SCALE_REQUEST = "serving.scale_request"
SPAN_SERVING_AUTOSCALE = "serving.autoscale"
SPAN_SERVING_DEGRADE = "serving.degrade"
SPAN_INSTRCHECK_UNIT = "instrcheck.unit"
SPAN_INSTRCHECK_REPLAY = "instrcheck.replay"
SPAN_FLEETSCREEN_PASS = "fleetscreen.pass"
SPAN_FLEETSCREEN_DISTILL = "fleetscreen.distill"
SPAN_STORAGE_PUT = "storage.put"
SPAN_STORAGE_GET = "storage.get"
SPAN_STORAGE_QUARANTINE = "storage.quarantine"

_declared = {
    constant: value for constant, value in dict(vars()).items()
    if constant.isupper() and isinstance(value, str)
}

#: every declared metric family name
METRIC_NAMES: frozenset[str] = frozenset(
    value for constant, value in _declared.items()
    if not constant.startswith("SPAN_")
)

#: every declared span name
SPAN_NAMES: frozenset[str] = frozenset(
    value for constant, value in _declared.items()
    if constant.startswith("SPAN_")
)

#: every declared name
DECLARED_NAMES: frozenset[str] = METRIC_NAMES | SPAN_NAMES

__all__ = sorted(
    name for name in dict(vars()) if name.isupper()
)
