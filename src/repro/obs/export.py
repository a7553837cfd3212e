"""Exporters: render a :class:`~repro.obs.registry.MetricsRegistry`.

Two formats, both deterministic (name-sorted families, label-sorted
series):

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  series for histograms), pasteable into any Prometheus tooling.
* :func:`to_json` — the registry snapshot as a JSON string, for
  programmatic consumption (``repro metrics --format json``).
"""

from __future__ import annotations

import json

from repro.obs.registry import Histogram, MetricsRegistry


def _fmt_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _fmt_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every registered metric in Prometheus text format."""
    lines: list[str] = []
    for metric in registry.collect():
        help_text = metric.help or metric.name
        if metric.unit:
            help_text = f"{help_text} [{metric.unit}]"
        lines.append(f"# HELP {metric.name} {help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key, state in metric.series():
                labels = dict(key)
                cumulative = 0
                for bound, count in zip(metric.buckets, state.counts):
                    cumulative += count
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(labels, {'le': _fmt_value(bound)})}"
                        f" {cumulative}"
                    )
                cumulative += state.counts[-1]
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_fmt_labels(labels, {'le': '+Inf'})} {cumulative}"
                )
                lines.append(
                    f"{metric.name}_sum{_fmt_labels(labels)}"
                    f" {_fmt_value(state.sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_fmt_labels(labels)} {state.count}"
                )
            continue
        for key, value in metric.series():
            lines.append(
                f"{metric.name}{_fmt_labels(dict(key))} {_fmt_value(value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(registry: MetricsRegistry) -> str:
    """Render the registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True)


__all__ = ["to_json", "to_prometheus"]
