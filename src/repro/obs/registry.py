"""Process-local metrics registry: counters, gauges, histograms.

One registry instance (the module singleton in :mod:`repro.obs`) holds
every metric the framework emits.  Design constraints, in order:

1. **One switch, cheap when off.**  Every mutator checks one boolean
   on the owning registry and returns; nothing else reads it, so call
   sites emit unconditionally and the off mode is one no-op call per
   site (the benchmark's ``obs.on_overhead_pct`` row).
2. **Deterministic.**  Metrics never read clocks or RNGs; a snapshot
   of a seeded campaign is a pure function of the seed.
3. **Pool-mergeable.**  :meth:`MetricsRegistry.snapshot` /
   :meth:`MetricsRegistry.merge` round-trip through pickle/JSON so the
   trial engine can reset a worker's registry per trial and fold the
   per-trial snapshots back together on gather (counters and histogram
   buckets add; gauges last-write-win).
4. **Bounded cardinality.**  A series may fan out over at most
   :data:`MAX_LABEL_SETS` distinct label combinations; the 65th raises
   :class:`CardinalityError` instead of silently eating memory — the
   fleet-scale rule that per-core data belongs in forensics state, not
   in label values.

``reset()`` zeroes series *in place* and keeps every registered metric
object valid, so instrumentation handles cached in ``__init__`` bodies
(or module globals) survive per-trial resets.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

#: maximum distinct label sets per series before CardinalityError
MAX_LABEL_SETS = 64

#: default latency buckets (simulated milliseconds, upper bounds)
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: canonical label-set key: sorted (name, value) pairs
LabelKey = tuple[tuple[str, str], ...]


class CardinalityError(RuntimeError):
    """A metric exceeded :data:`MAX_LABEL_SETS` distinct label sets.

    Unbounded label values (request ids, per-core ids at fleet scale)
    turn a metrics registry into an accidental database; the guard
    fails fast with the offending series name so the label can be
    dropped or bucketed.
    """


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base: one named family of labeled series."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "", unit: str = "") -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.unit = unit
        self._series: dict[LabelKey, object] = {}

    def _key(self, labels: dict[str, object]) -> LabelKey:
        key = _label_key(labels)
        if key not in self._series and len(self._series) >= MAX_LABEL_SETS:
            raise CardinalityError(
                f"metric {self.name!r} would exceed {MAX_LABEL_SETS} "
                f"distinct label sets (offending labels: {dict(key)!r}); "
                "drop or bucket the offending label"
            )
        return key

    def clear(self) -> None:
        """Drop all series (values *and* label sets); keep registration."""
        self._series.clear()

    def series(self) -> Iterator[tuple[LabelKey, object]]:
        """Deterministic (sorted) iteration over the label sets."""
        return iter(sorted(self._series.items()))


class Counter(Metric):
    """Monotonically-increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return float(self._series.get(_label_key(labels), 0.0))


class Gauge(Metric):
    """Point-in-time value (set wins; merge keeps the incoming value)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self.registry.enabled:
            return
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return float(self._series.get(_label_key(labels), 0.0))


@dataclasses.dataclass
class HistogramState:
    """Per-label-set histogram accumulator (non-cumulative buckets)."""

    counts: list[int]
    sum: float = 0.0
    count: int = 0


class Histogram(Metric):
    """Distribution over fixed upper-bound buckets (plus +Inf).

    Bucket semantics match Prometheus: a value lands in the first
    bucket whose upper bound is ``>=`` the value (``le``); values above
    the last bound land in the implicit +Inf bucket.  Internally the
    counts are per-bucket (non-cumulative); the exporter cumulates.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "", unit: str = "",
                 buckets: tuple[float, ...] | None = None) -> None:
        super().__init__(registry, name, help=help, unit=unit)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds

    def _bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` lands in (len(buckets) = +Inf)."""
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                return index
        return len(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = HistogramState(counts=[0] * (len(self.buckets) + 1))
            self._series[key] = state
        state.counts[self._bucket_index(value)] += 1
        state.sum += value
        state.count += 1

    def state(self, **labels: object) -> HistogramState | None:
        return self._series.get(_label_key(labels))


class MetricsRegistry:
    """All metrics of one process, addressable by name.

    Accessors are get-or-create: the first ``counter("x")`` registers
    the family, later calls return the same object (so handles can be
    cached anywhere).  Re-requesting a name as a different kind is a
    programming error and raises ``TypeError``.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Metric] = {}

    # -- registration ---------------------------------------------------

    def _get_or_create(self, cls: type, name: str, **kwargs: object) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            return metric
        metric = cls(self, name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help, unit=unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help, unit=unit)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help=help, unit=unit, buckets=buckets
        )

    # -- introspection --------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def collect(self) -> Iterator[Metric]:
        """Metrics in deterministic (name-sorted) order."""
        for name in self.names():
            yield self._metrics[name]

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Zero every series in place (handles stay valid)."""
        for metric in self._metrics.values():
            metric.clear()

    def snapshot(self) -> dict:
        """JSON/pickle-safe dump of every series, for worker gather."""
        out: dict[str, dict] = {}
        for metric in self.collect():
            entry: dict = {
                "kind": metric.kind, "help": metric.help,
                "unit": metric.unit, "series": [],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                for key, state in metric.series():
                    entry["series"].append({
                        "labels": dict(key),
                        "counts": list(state.counts),
                        "sum": state.sum,
                        "count": state.count,
                    })
            else:
                for key, value in metric.series():
                    entry["series"].append(
                        {"labels": dict(key), "value": value}
                    )
            out[metric.name] = entry
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's snapshot in: add counts, last-write gauges."""
        for name, entry in snapshot.items():
            kind = entry["kind"]
            if kind == "histogram":
                metric = self.histogram(
                    name, help=entry.get("help", ""),
                    unit=entry.get("unit", ""),
                    buckets=tuple(entry.get("buckets", DEFAULT_BUCKETS)),
                )
                for row in entry["series"]:
                    key = metric._key(row["labels"])
                    state = metric._series.get(key)
                    if state is None:
                        state = HistogramState(
                            counts=[0] * (len(metric.buckets) + 1)
                        )
                        metric._series[key] = state
                    for index, count in enumerate(row["counts"]):
                        state.counts[index] += count
                    state.sum += row["sum"]
                    state.count += row["count"]
                continue
            if kind == "gauge":
                metric = self.gauge(
                    name, help=entry.get("help", ""),
                    unit=entry.get("unit", ""),
                )
                for row in entry["series"]:
                    metric._series[metric._key(row["labels"])] = row["value"]
                continue
            metric = self.counter(
                name, help=entry.get("help", ""), unit=entry.get("unit", "")
            )
            for row in entry["series"]:
                key = metric._key(row["labels"])
                metric._series[key] = metric._series.get(key, 0.0) + row["value"]


__all__ = [
    "CardinalityError",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MAX_LABEL_SETS",
    "Metric",
    "MetricsRegistry",
]
