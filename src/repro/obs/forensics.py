"""Corruption forensics: join spans, events, and ground truth.

The paper's motivating pain is that a CEE incident is reconstructed by
archaeology — "which core caused this, when did it start lying, and how
long did suspicion take to become quarantine?"  This module does that
join mechanically for campaign runs:

* **ground truth** — the campaign's unconditional per-core record of
  the first tick whose :class:`~repro.silicon.core.Core` corruption
  counter moved (``first_corrupt_tick``);
* **signals** — the :class:`~repro.core.events.CeeEvent` stream the
  detection layer actually saw;
* **decision** — the scorecard's ``quarantine_tick``.

:func:`detection_latency_summary` reduces those to per-core stage
latencies (first corrupt op → first signal → quarantine) plus signal
latency percentiles; the result is JSON-safe and deterministic, so the
E15/E16 scorecards embed it directly.  :func:`render_forensics` formats
the same data as the ``repro trace`` timeline report.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.core.events import CeeEvent
from repro.obs.spans import Span

#: campaign tick-ms → CeeEvent.time_days conversion (mirrors campaigns)
MS_PER_DAY = 86_400_000.0


def _event_ms(event: CeeEvent) -> float:
    return event.time_days * MS_PER_DAY


def _percentile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


def detection_latency_summary(
    first_corrupt_tick: dict[str, int],
    quarantine_tick: dict[str, int],
    events: list[CeeEvent],
    tick_ms: float,
) -> dict[str, dict]:
    """Per-core detection-latency record, keyed by core id (sorted).

    For every core that demonstrably corrupted (it has a
    ``first_corrupt_tick`` entry), compute when the first attributed
    suspicion signal arrived and when quarantine landed, all in
    simulated milliseconds.  Stage latencies are ``None`` when the
    stage never happened (escaped incident, or quarantined on a
    sibling's evidence before emitting a signal).
    """
    by_core: dict[str, list[CeeEvent]] = collections.defaultdict(list)
    for event in events:
        if event.core_id is not None:
            by_core[event.core_id].append(event)

    summary: dict[str, dict] = {}
    for core_id in sorted(first_corrupt_tick):
        corrupt_ms = first_corrupt_tick[core_id] * tick_ms
        signals = sorted(
            (e for e in by_core.get(core_id, ())
             if _event_ms(e) >= corrupt_ms),
            key=_event_ms,
        )
        first_signal_ms = _event_ms(signals[0]) if signals else None
        q_tick = quarantine_tick.get(core_id)
        quarantine_ms = None if q_tick is None else q_tick * tick_ms
        latencies = [_event_ms(e) - corrupt_ms for e in signals]
        kinds = collections.Counter(e.kind.value for e in signals)
        summary[core_id] = {
            "first_corrupt_tick": first_corrupt_tick[core_id],
            "first_corrupt_ms": corrupt_ms,
            "first_signal_ms": first_signal_ms,
            "quarantine_ms": quarantine_ms,
            "corrupt_to_signal_ms": (
                None if first_signal_ms is None
                else first_signal_ms - corrupt_ms
            ),
            "signal_to_quarantine_ms": (
                None if (first_signal_ms is None or quarantine_ms is None)
                else quarantine_ms - first_signal_ms
            ),
            "corrupt_to_quarantine_ms": (
                None if quarantine_ms is None
                else quarantine_ms - corrupt_ms
            ),
            "n_signals": len(signals),
            "signal_kinds": dict(sorted(kinds.items())),
            "signal_latency_p50_ms": _percentile(latencies, 50),
            "signal_latency_p90_ms": _percentile(latencies, 90),
            "signal_latency_p99_ms": _percentile(latencies, 99),
        }
    return summary


def latency_percentiles(
    summary: dict[str, dict], stage: str = "corrupt_to_quarantine_ms"
) -> dict[str, float | None]:
    """Fleet-level percentiles of one stage latency across incidents."""
    values = [
        record[stage] for record in summary.values()
        if record.get(stage) is not None
    ]
    return {
        "p50": _percentile(values, 50),
        "p90": _percentile(values, 90),
        "p99": _percentile(values, 99),
        "n": len(values),
    }


def span_stats(spans: list[Span]) -> dict[str, dict]:
    """Per-span-name count and total simulated duration, name-sorted."""
    stats: dict[str, dict] = {}
    for span in spans:
        entry = stats.setdefault(
            span.name, {"count": 0, "total_ms": 0.0, "errors": 0}
        )
        entry["count"] += 1
        entry["total_ms"] += span.duration_ms
        if "error" in span.attrs:
            entry["errors"] += 1
    return dict(sorted(stats.items()))


def render_forensics(
    title: str,
    summary: dict[str, dict],
    events: list[CeeEvent],
    spans: list[Span],
    tick_ms: float,
    quarantine_tick: dict[str, int] | None = None,
) -> str:
    """The ``repro trace`` report: per-incident timeline + span rollup."""
    lines = [f"== corruption forensics: {title} =="]
    if not summary:
        lines.append("no core demonstrably corrupted during the campaign")
    for core_id, record in summary.items():
        lines.append(f"incident core {core_id}:")
        lines.append(
            f"  first corrupt op     tick {record['first_corrupt_tick']:>5}"
            f"  {record['first_corrupt_ms']:>9.1f} ms"
        )
        if record["first_signal_ms"] is None:
            lines.append(
                "  first signal         (none attributed to this core)"
            )
        else:
            lines.append(
                f"  first signal         tick "
                f"{int(record['first_signal_ms'] / tick_ms):>5}"
                f"  {record['first_signal_ms']:>9.1f} ms"
                f"   (+{record['corrupt_to_signal_ms']:.1f} ms after corrupt)"
            )
        if record["quarantine_ms"] is None:
            lines.append(
                "  quarantine decision  (never quarantined — escape)"
            )
        else:
            after_signal = record["signal_to_quarantine_ms"]
            suffix = (
                "" if after_signal is None
                else f"   (+{after_signal:.1f} ms after signal, "
                f"+{record['corrupt_to_quarantine_ms']:.1f} ms end-to-end)"
            )
            lines.append(
                f"  quarantine decision  tick "
                f"{int(record['quarantine_ms'] / tick_ms):>5}"
                f"  {record['quarantine_ms']:>9.1f} ms{suffix}"
            )
        kinds = ", ".join(
            f"{kind} x{count}"
            for kind, count in record["signal_kinds"].items()
        )
        lines.append(
            f"  signals attributed:  {record['n_signals']}"
            + (f" ({kinds})" if kinds else "")
        )
        p50, p90, p99 = (
            record["signal_latency_p50_ms"],
            record["signal_latency_p90_ms"],
            record["signal_latency_p99_ms"],
        )
        if p50 is not None:
            lines.append(
                "  signal latency since first corrupt: "
                f"p50={p50:.1f} p90={p90:.1f} p99={p99:.1f} ms"
            )
    if quarantine_tick:
        collateral = sorted(set(quarantine_tick) - set(summary))
        if collateral:
            lines.append(
                "collateral quarantines (no observed corruption): "
                + ", ".join(
                    f"{core_id}@tick{quarantine_tick[core_id]}"
                    for core_id in collateral
                )
            )
    lines.append(f"events: {len(events)} total")
    stats = span_stats(spans)
    if stats:
        total = sum(entry["count"] for entry in stats.values())
        lines.append(f"spans: {total} recorded")
        for name, entry in stats.items():
            err = f", errors {entry['errors']}" if entry["errors"] else ""
            lines.append(
                f"  {name:<24} x{entry['count']:<6}"
                f" total {entry['total_ms']:.1f} ms{err}"
            )
    return "\n".join(lines)


__all__ = [
    "MS_PER_DAY",
    "detection_latency_summary",
    "latency_percentiles",
    "render_forensics",
    "span_stats",
]
