"""Forensics timeline reconstruction: synthetic and end-to-end.

The reconstructor joins three sources — unconditional first-corruption
bookkeeping, the CeeEvent signal stream, and scorecard quarantine
ticks — into per-incident stage latencies.  The end-to-end test runs a
real E15 chaos arm and checks the timeline is causally ordered.
"""

import pytest

from repro.core.events import CeeEvent, EventKind, Reporter
from repro.obs.forensics import (
    MS_PER_DAY,
    detection_latency_summary,
    latency_percentiles,
    render_forensics,
    span_stats,
)


def _event(ms: float, core_id: str, kind: EventKind) -> CeeEvent:
    return CeeEvent(
        time_days=ms / MS_PER_DAY,
        machine_id="m0",
        core_id=core_id,
        kind=kind,
        reporter=Reporter.AUTOMATED,
    )


class TestSyntheticTimeline:
    TICK_MS = 2.0

    def summary(self):
        events = [
            _event(8.0, "m0/c1", EventKind.APP_REPORT),
            _event(14.0, "m0/c1", EventKind.BREAKER_TRIP),
            _event(4.0, "m0/c9", EventKind.MACHINE_CHECK),  # other core
            _event(2.0, "m0/c1", EventKind.APP_REPORT),  # pre-corruption
        ]
        return detection_latency_summary(
            first_corrupt_tick={"m0/c1": 3},  # 6.0 ms
            quarantine_tick={"m0/c1": 10},    # 20.0 ms
            events=events,
            tick_ms=self.TICK_MS,
        )

    def test_stage_latencies(self):
        record = self.summary()["m0/c1"]
        assert record["first_corrupt_ms"] == 6.0
        assert record["first_signal_ms"] == 8.0
        assert record["quarantine_ms"] == 20.0
        assert record["corrupt_to_signal_ms"] == 2.0
        assert record["signal_to_quarantine_ms"] == 12.0
        assert record["corrupt_to_quarantine_ms"] == 14.0

    def test_only_post_corruption_signals_attributed(self):
        record = self.summary()["m0/c1"]
        # the 2.0 ms APP_REPORT predates corruption; c9's MCE is not ours
        assert record["n_signals"] == 2
        assert record["signal_kinds"] == {
            "app_report": 1, "breaker_trip": 1,
        }

    def test_unquarantined_core_has_none_stages(self):
        summary = detection_latency_summary(
            first_corrupt_tick={"m0/c1": 3},
            quarantine_tick={},
            events=[],
            tick_ms=self.TICK_MS,
        )
        record = summary["m0/c1"]
        assert record["first_signal_ms"] is None
        assert record["quarantine_ms"] is None
        assert record["corrupt_to_quarantine_ms"] is None
        assert record["signal_latency_p50_ms"] is None

    def test_latency_percentiles_skip_none(self):
        summary = {
            "a": {"corrupt_to_quarantine_ms": 10.0},
            "b": {"corrupt_to_quarantine_ms": None},
            "c": {"corrupt_to_quarantine_ms": 30.0},
        }
        pcts = latency_percentiles(summary)
        assert pcts["n"] == 2
        assert pcts["p50"] == pytest.approx(20.0)

    def test_render_contains_timeline_lines(self):
        text = render_forensics(
            "synthetic", self.summary(), [], [], self.TICK_MS,
            quarantine_tick={"m0/c1": 10, "m0/c9": 12},
        )
        assert "incident core m0/c1" in text
        assert "first corrupt op" in text
        assert "first signal" in text
        assert "quarantine decision" in text
        # c9 was quarantined without ever demonstrably corrupting
        assert "collateral quarantines" in text
        assert "m0/c9@tick12" in text


class TestSpanStats:
    def test_counts_durations_errors(self):
        from repro.obs.spans import Tracer

        tracer = Tracer()
        now = {"ms": 0.0}
        tracer.set_clock(lambda: now["ms"])
        with tracer.span("op"):
            now["ms"] = 4.0
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError
        stats = span_stats(tracer.spans())
        assert stats["op"]["count"] == 2
        assert stats["op"]["total_ms"] == pytest.approx(4.0)
        assert stats["op"]["errors"] == 1


class TestEndToEndE15:
    """`repro trace e15` reproduces a full incident timeline."""

    @pytest.fixture(scope="class")
    def incident(self):
        from repro import obs
        from repro.analysis.experiments import campaign_arm
        from repro.serving.campaign import CampaignConfig

        prior = obs.enabled()
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        try:
            card, events, bad_core_id = campaign_arm(
                "hardened", experiment_id="E15", seed=0, ticks=250,
            )
            spans = obs.tracer.drain()
        finally:
            obs.set_enabled(prior)
        return card, events, bad_core_id, spans, CampaignConfig().tick_ms

    def test_bad_core_timeline_is_causally_ordered(self, incident):
        card, _events, bad_core_id, _spans, _tick_ms = incident
        record = card.detection_latency_ms[bad_core_id]
        assert record["first_corrupt_ms"] <= record["first_signal_ms"]
        assert record["first_signal_ms"] <= record["quarantine_ms"]
        assert record["corrupt_to_quarantine_ms"] >= 0

    def test_scorecard_embeds_summary(self, incident):
        card, _events, bad_core_id, _spans, _tick_ms = incident
        payload = card.to_json()
        assert bad_core_id in payload["first_corrupt_tick"]
        assert bad_core_id in payload["detection_latency_ms"]

    def test_rendered_report(self, incident):
        card, events, bad_core_id, spans, tick_ms = incident
        text = render_forensics(
            "e2e", card.detection_latency_ms, events, spans, tick_ms,
            quarantine_tick=card.quarantine_tick,
        )
        assert f"incident core {bad_core_id}" in text
        assert "serving.request" in text
        assert "spans:" in text

    def test_request_spans_cover_campaign(self, incident):
        _card, _events, _bad, spans, _tick_ms = incident
        names = {s.name for s in spans}
        assert {"serving.request", "serving.serve"} <= names
        # quarantine decision leaves its marker span too
        assert "serving.quarantine" in names
