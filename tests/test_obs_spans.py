"""Contract tests for trace spans: determinism is the whole point.

Span and trace ids must be pure functions of (trial seed, call-tree
position) — never of wall clock, RNG state, or worker placement — so
that campaign artifacts stay bit-identical for any worker count.
"""

import json
import pickle

import pytest

from repro import obs
from repro.engine.runner import run_trials
from repro.obs import spans as spans_module
from repro.obs.spans import Tracer
from tests.pins import PINS, digest


@pytest.fixture
def tracer() -> Tracer:
    return Tracer(enabled=True)


class TestSpanTree:
    def test_parent_child_links(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.trace_id == outer.trace_id

    def test_sibling_spans_get_distinct_ids(self, tracer):
        with tracer.span("op"):
            pass
        with tracer.span("op"):
            pass
        first, second = tracer.spans()
        assert first.span_id != second.span_id
        assert first.name == second.name == "op"

    def test_attrs_settable_inside_block(self, tracer):
        with tracer.span("op", fixed="x") as sp:
            sp.attrs["status"] = "ok"
        (span,) = tracer.spans()
        assert span.attrs == {"fixed": "x", "status": "ok"}

    def test_exception_recorded_and_propagated(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("op"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"
        assert span.end_ms is not None


class TestDeterminism:
    def test_same_seed_same_ids(self):
        def record(seed):
            t = Tracer()
            t.start_trace(seed)
            with t.span("a"):
                with t.span("b"):
                    pass
            with t.span("a"):
                pass
            return [(s.name, s.trace_id, s.span_id, s.parent_id)
                    for s in t.spans()]

        assert record(42) == record(42)
        assert record(42) != record(43)

    def test_clock_is_simulated_not_wall(self, tracer):
        now = {"ms": 10.0}
        tracer.set_clock(lambda: now["ms"])
        with tracer.span("op"):
            now["ms"] = 25.0
        (span,) = tracer.spans()
        assert span.start_ms == 10.0
        assert span.end_ms == 25.0
        assert span.duration_ms == 15.0

    def test_default_clock_is_zero(self, tracer):
        with tracer.span("op"):
            pass
        (span,) = tracer.spans()
        assert span.start_ms == 0.0 and span.end_ms == 0.0


class TestPoolHandOff:
    def test_spans_pickle_round_trip(self, tracer):
        with tracer.span("op", core="c0") as sp:
            sp.attrs["ok"] = True
        restored = pickle.loads(pickle.dumps(tracer.drain()))
        assert restored[0].name == "op"
        assert restored[0].attrs == {"core": "c0", "ok": True}

    def test_drain_empties_adopt_restores(self, tracer):
        with tracer.span("op"):
            pass
        spans = tracer.drain()
        assert tracer.spans() == []
        tracer.adopt(spans)
        assert [s.name for s in tracer.spans()] == ["op"]

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("op") as sp:
            sp.attrs["ignored"] = 1  # null span accepts the idiom
        assert t.spans() == []


def _spanning_trial(trial):
    with obs.tracer.span("work", index=trial.index):
        pass
    return trial.index


class TestWorkerCountInvariance:
    """The engine contract: workers 1 vs N yield identical span ids."""

    def _run(self, workers: int):
        obs.metrics.reset()
        obs.tracer.reset()
        run_trials(_spanning_trial, 4, seed=11, workers=workers)
        return [
            (s.name, s.trace_id, s.span_id, s.parent_id)
            for s in obs.tracer.spans()
        ]

    def test_span_ids_identical_workers_1_vs_3(self):
        prior = obs.enabled()
        obs.set_enabled(True)
        try:
            serial = self._run(1)
            pooled = self._run(3)
        finally:
            obs.set_enabled(prior)
        assert serial == pooled
        # every trial contributed its engine.trial root + the work span
        names = [name for name, *_ in serial]
        assert names.count("engine.trial") == 4
        assert names.count("work") == 4
        # distinct trials are distinct traces (seed-derived trace ids)
        trace_ids = {trace for _, trace, *_ in serial}
        assert len(trace_ids) == 4


def _nested_tree(tracer: Tracer) -> None:
    """Two roots, a three-deep chain and repeated names under one parent."""
    tracer.start_trace(7)
    with tracer.span("request", id=0):
        with tracer.span("attempt"):
            with tracer.span("serve", core="c1"):
                pass
        with tracer.span("attempt"):
            pass
    with tracer.span("request", id=1):
        pass


class TestIdsOnRead:
    """Ids are a function of tree position; pickling must not lose them."""

    def test_pickle_before_any_read_keeps_the_ids(self):
        in_place = Tracer()
        _nested_tree(in_place)
        expected = [s.to_json() for s in in_place.spans()]

        pickled = Tracer()
        _nested_tree(pickled)
        # no id was read before the hand-off
        restored = pickle.loads(pickle.dumps(pickled.drain()))
        assert [s.to_json() for s in restored] == expected
        assert len({s["span_id"] for s in expected}) == len(expected)


#: spans each traced arm records at seed 0 ((arm, fleet, ci kwargs) come
#: from the campaign table); the digest of their ``to_json()``, captured
#: before span ids became lazy, is ``PINS["spans"]``
SPAN_COUNTS = {"E15": 1742, "E17": 4587}


def _traced_arm(experiment_id: str) -> None:
    from repro.analysis.experiments import CAMPAIGNS, EXPERIMENTS, campaign_arm

    spec = CAMPAIGNS[experiment_id]
    campaign_arm(
        spec.trace_arm, experiment_id=experiment_id, seed=0,
        fleet=spec.trace_fleet, **EXPERIMENTS[experiment_id].ci,
    )


@pytest.fixture
def obs_on():
    prior = obs.enabled()
    obs.set_enabled(True)
    obs.metrics.reset()
    obs.tracer.reset()
    yield
    obs.set_enabled(prior)


@pytest.mark.parametrize("experiment_id", sorted(SPAN_COUNTS))
class TestCampaignSpans:
    def test_span_json_digest_is_pinned(self, experiment_id, obs_on):
        _traced_arm(experiment_id)
        spans = [s.to_json() for s in obs.tracer.spans()]
        assert (len(spans), digest(spans)) == (
            SPAN_COUNTS[experiment_id], PINS["spans"][experiment_id]
        )

    def test_no_id_is_hashed_until_read(
        self, experiment_id, obs_on, monkeypatch
    ):
        hashed = []
        real = spans_module._hash_id

        def counting(*parts: object) -> str:
            hashed.append(parts)
            return real(*parts)

        monkeypatch.setattr(spans_module, "_hash_id", counting)
        _traced_arm(experiment_id)
        spans = obs.tracer.spans()
        assert len(spans) == SPAN_COUNTS[experiment_id]
        assert hashed == []
        for span in spans:
            span.to_json()
        # one hash per span: a parent's id is read from its cache
        assert len(hashed) == len(spans)
