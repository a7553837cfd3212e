"""Contract tests for the obs metrics registry and its exporters.

The registry's promises: get-or-create handles that survive resets,
Prometheus-compatible histogram bucket semantics, a hard cardinality
ceiling, and snapshot/merge round-trips that make pool gather exact.
"""

import json

import pytest

from repro.obs import names
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import (
    CardinalityError,
    DEFAULT_BUCKETS,
    MAX_LABEL_SETS,
    MetricsRegistry,
)
from tests.pins import PINS, digest


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


class TestCounters:
    def test_inc_and_value(self, registry):
        c = registry.counter("ops_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self, registry):
        c = registry.counter("req_total")
        c.inc(status="ok")
        c.inc(status="ok")
        c.inc(status="fail")
        assert c.value(status="ok") == 2.0
        assert c.value(status="fail") == 1.0
        assert c.value(status="missing") == 0.0

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("n").inc(-1.0)

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("x")
        c.inc(100)
        assert c.value() == 0.0


class TestGauges:
    def test_set_wins(self, registry):
        g = registry.gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value() == 2.0

    def test_inc(self, registry):
        g = registry.gauge("depth")
        g.inc(3)
        g.inc(-1)
        assert g.value() == 2.0


class TestHistogramBuckets:
    """The le-semantics contract: value lands in first bucket >= it."""

    def test_value_on_boundary_lands_in_that_bucket(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 5.0, 10.0))
        h.observe(1.0)   # exactly le=1
        h.observe(5.0)   # exactly le=5
        state = h.state()
        assert state.counts == [1, 1, 0, 0]

    def test_value_above_last_bound_lands_in_inf(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 5.0))
        h.observe(5.0001)
        h.observe(1e9)
        assert h.state().counts == [0, 0, 2]

    def test_sum_and_count(self, registry):
        h = registry.histogram("lat", buckets=(1.0,))
        for v in (0.5, 2.0, 3.0):
            h.observe(v)
        state = h.state()
        assert state.count == 3
        assert state.sum == pytest.approx(5.5)

    def test_default_buckets_used_when_unspecified(self, registry):
        h = registry.histogram("lat")
        assert h.buckets == DEFAULT_BUCKETS

    def test_non_increasing_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad2", buckets=(5.0, 1.0))

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("bad", buckets=())


class TestCardinalityGuard:
    def test_65th_label_set_raises_with_clear_error(self, registry):
        c = registry.counter("fanout_total")
        for i in range(MAX_LABEL_SETS):
            c.inc(shard=str(i))
        with pytest.raises(CardinalityError) as excinfo:
            c.inc(shard="one-too-many")
        message = str(excinfo.value)
        assert "fanout_total" in message
        assert str(MAX_LABEL_SETS) in message

    def test_existing_label_set_still_writable_at_ceiling(self, registry):
        c = registry.counter("fanout_total")
        for i in range(MAX_LABEL_SETS):
            c.inc(shard=str(i))
        c.inc(shard="0")  # not a new series: must not raise
        assert c.value(shard="0") == 2.0

    def test_reset_clears_label_sets(self, registry):
        c = registry.counter("fanout_total")
        for i in range(MAX_LABEL_SETS):
            c.inc(shard=str(i))
        registry.reset()
        c.inc(shard="fresh")  # room again after reset
        assert c.value(shard="fresh") == 1.0


class TestResetAndHandles:
    def test_reset_keeps_cached_handles_valid(self, registry):
        c = registry.counter("ops_total")
        c.inc(7)
        registry.reset()
        assert c.value() == 0.0
        c.inc()
        assert c.value() == 1.0
        assert registry.counter("ops_total") is c


class TestSnapshotMerge:
    def test_counter_merge_adds(self, registry):
        registry.counter("ops_total").inc(3, kind="a")
        snap = registry.snapshot()
        registry.merge(snap)
        assert registry.counter("ops_total").value(kind="a") == 6.0

    def test_gauge_merge_overwrites(self, registry):
        registry.gauge("depth").set(5)
        snap = registry.snapshot()
        registry.gauge("depth").set(9)
        registry.merge(snap)
        assert registry.gauge("depth").value() == 5.0

    def test_histogram_merge_adds_buckets(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 5.0))
        h.observe(0.5)
        h.observe(3.0)
        snap = registry.snapshot()
        registry.merge(snap)
        state = h.state()
        assert state.counts == [2, 2, 0]
        assert state.count == 4
        assert state.sum == pytest.approx(7.0)

    def test_merge_into_empty_registry(self, registry):
        registry.counter("ops_total").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.merge(registry.snapshot())
        assert other.counter("ops_total").value() == 2.0
        assert other.histogram("lat", buckets=(1.0,)).state().count == 1

    def test_snapshot_is_json_safe(self, registry):
        registry.counter("ops_total").inc(kind="a")
        registry.histogram("lat").observe(3.0)
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        other = MetricsRegistry()
        other.merge(round_tripped)
        assert other.counter("ops_total").value(kind="a") == 1.0


class TestExporters:
    def test_prometheus_buckets_are_cumulative(self, registry):
        h = registry.histogram("lat", help="latency", unit="ms",
                               buckets=(1.0, 5.0))
        h.observe(0.5)
        h.observe(3.0)
        h.observe(100.0)
        text = to_prometheus(registry)
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="5"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 103.5" in text

    def test_prometheus_escapes_label_values(self, registry):
        registry.counter("c_total").inc(path='a"b\\c')
        text = to_prometheus(registry)
        assert 'path="a\\"b\\\\c"' in text

    def test_json_export_is_sorted_and_parseable(self, registry):
        registry.counter("b_total").inc()
        registry.counter("a_total").inc()
        payload = json.loads(to_json(registry))
        assert list(payload) == sorted(payload)
        assert payload["a_total"]["kind"] == "counter"


class TestDeclaredNames:
    """``METRIC_NAMES`` / ``SPAN_NAMES`` are derived from the constants."""

    @staticmethod
    def _constants() -> dict[str, str]:
        return {
            constant: value for constant, value in vars(names).items()
            if constant.isupper() and isinstance(value, str)
        }

    def test_derived_sets_are_the_hand_listed_ones(self):
        # the count of the two frozensets as they were written out by
        # hand at fa8b416, less the three telemetry_* families retired
        # with the MCE/crash-dump analyzers; the digest of the sorted
        # names is in PINS.  Re-pin on purpose when a name is added or
        # retired.
        for attr, count in (("METRIC_NAMES", 34), ("SPAN_NAMES", 15)):
            declared = sorted(getattr(names, attr))
            assert len(declared) == count, declared
            assert digest(declared) == PINS["names"][attr], declared
        assert names.DECLARED_NAMES == names.METRIC_NAMES | names.SPAN_NAMES

    def test_every_constant_lands_in_exactly_one_set(self):
        constants = self._constants()
        assert len(constants) == len(names.DECLARED_NAMES)  # no aliases
        for constant, value in constants.items():
            assert (value in names.METRIC_NAMES) != (
                value in names.SPAN_NAMES
            ), constant

    def test_a_misprefixed_constant_cannot_slip_through(self):
        # spans are dotted (layer.operation), metric families never are
        assert all("." in value for value in names.SPAN_NAMES)
        assert not any("." in value for value in names.METRIC_NAMES)
        for constant, value in self._constants().items():
            assert constant.startswith("SPAN_") == ("." in value), constant
