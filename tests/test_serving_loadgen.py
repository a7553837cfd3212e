"""Open-loop load generation: profiles, cohorts, and determinism."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.loadgen import (
    DEFAULT_COHORTS,
    LoadGenerator,
    LoadPhase,
    LoadProfile,
    UserCohort,
)


class TestUserCohort:
    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            UserCohort("bad", weight=0.0)

    def test_rejects_empty_user_space(self):
        with pytest.raises(ValueError):
            UserCohort("bad", n_users=0)

    def test_default_population_has_interactive_and_batch(self):
        names = {c.name for c in DEFAULT_COHORTS}
        assert names == {"interactive", "batch"}
        interactive = next(c for c in DEFAULT_COHORTS if c.name == "interactive")
        batch = next(c for c in DEFAULT_COHORTS if c.name == "batch")
        # latency-sensitive traffic dominates and has the tighter budget
        assert interactive.weight > batch.weight
        assert interactive.deadline_ms < batch.deadline_ms


class TestLoadPhase:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LoadPhase(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LoadPhase(10, -1.0, 1.0)

    def test_interpolates_linearly_between_endpoints(self):
        phase = LoadPhase(5, 2.0, 10.0)
        assert phase.rate_at(0) == 2.0
        assert phase.rate_at(4) == 10.0
        assert phase.rate_at(2) == 6.0

    def test_single_tick_phase_is_a_point(self):
        assert LoadPhase(1, 3.0, 9.0).rate_at(0) == 3.0


class TestLoadProfile:
    def test_needs_at_least_one_phase(self):
        with pytest.raises(ValueError):
            LoadProfile([])

    def test_steady_is_flat_and_holds_past_the_end(self):
        profile = LoadProfile.steady(4.0, ticks=10)
        assert sum(phase.ticks for phase in profile.phases) == 10
        assert all(profile.rate_at(t) == 4.0 for t in range(20))

    def test_ramp_covers_exactly_the_requested_ticks(self):
        profile = LoadProfile.ramp(2.0, 10.0, ticks=100)
        assert sum(phase.ticks for phase in profile.phases) == 100

    def test_ramp_warms_up_peaks_and_cools_down(self):
        profile = LoadProfile.ramp(2.0, 10.0, ticks=100)
        assert profile.rate_at(0) == 2.0              # warm plateau
        assert profile.rate_at(60) == 10.0            # hold at peak
        assert profile.rate_at(99) == 2.0             # cooled back down
        # the climb is monotone
        climb = [profile.rate_at(t) for t in range(20, 50)]
        assert climb == sorted(climb)


class TestLoadGenerator:
    def _stream(self, seed, ticks=40, burst=1.0):
        gen = LoadGenerator(
            LoadProfile.ramp(4.0, 12.0, ticks), seed=seed
        )
        out = []
        for tick in range(ticks):
            for req in gen.arrivals(tick, burst):
                out.append((
                    req.request_id, req.payload, req.route_key,
                    req.cohort, req.deadline_ms, req.arrival_tick,
                ))
        return out

    def test_needs_at_least_one_cohort(self):
        with pytest.raises(ValueError):
            LoadGenerator(LoadProfile.steady(1.0, 10), cohorts=())

    def test_same_seed_produces_byte_identical_streams(self):
        assert self._stream(seed=9) == self._stream(seed=9)

    def test_different_seeds_produce_different_streams(self):
        assert self._stream(seed=9) != self._stream(seed=10)

    def test_request_ids_are_sequential(self):
        stream = self._stream(seed=3)
        assert [r[0] for r in stream] == list(range(len(stream)))

    def test_zero_rate_generates_nothing(self):
        gen = LoadGenerator(LoadProfile.steady(0.0, 10), seed=0)
        assert all(gen.arrivals(t) == [] for t in range(10))
        assert gen.generated == 0

    def test_burst_multiplier_zero_silences_the_tick(self):
        gen = LoadGenerator(LoadProfile.steady(50.0, 10), seed=0)
        assert gen.arrivals(0, burst_multiplier=0.0) == []

    def test_burst_multiplier_scales_the_arrival_rate(self):
        quiet = LoadGenerator(LoadProfile.steady(5.0, 200), seed=1)
        loud = LoadGenerator(LoadProfile.steady(5.0, 200), seed=1)
        n_quiet = sum(len(quiet.arrivals(t, 1.0)) for t in range(200))
        n_loud = sum(len(loud.arrivals(t, 3.0)) for t in range(200))
        assert n_loud > 2 * n_quiet

    def test_open_loop_arrivals_ignore_consumer_behaviour(self):
        # The defining property: the request stream is a function of
        # (seed, tick sequence) alone.  A "consumer" that drops every
        # request sees the identical stream as one that serves them.
        assert self._stream(seed=5) == self._stream(seed=5)

    def test_cohort_key_spaces_are_disjoint(self):
        gen = LoadGenerator(LoadProfile.steady(20.0, 60), seed=2)
        keys = {"interactive": set(), "batch": set()}
        for tick in range(60):
            for req in gen.arrivals(tick):
                keys[req.cohort].add(req.route_key)
        assert keys["batch"] and keys["interactive"]
        # cohorts sort by name: batch owns [0, 64), interactive the rest
        assert max(keys["batch"]) < 64
        assert min(keys["interactive"]) >= 64
        assert not keys["batch"] & keys["interactive"]

    def test_payload_size_and_deadline_follow_the_cohort(self):
        sizes = {c.name: c.payload_bytes for c in DEFAULT_COHORTS}
        deadlines = {c.name: c.deadline_ms for c in DEFAULT_COHORTS}
        gen = LoadGenerator(LoadProfile.steady(20.0, 30), seed=4)
        for tick in range(30):
            for req in gen.arrivals(tick):
                assert len(req.payload) == sizes[req.cohort]
                assert req.deadline_ms == deadlines[req.cohort]
                assert req.arrival_tick == tick

    def test_poisson_mean_tracks_the_profile_rate(self):
        gen = LoadGenerator(LoadProfile.steady(8.0, 500), seed=6)
        counts = [len(gen.arrivals(t)) for t in range(500)]
        assert abs(float(np.mean(counts)) - 8.0) < 0.5


class TestInputHoles:
    """Inputs that used to pass construction and misbehave later."""

    @pytest.mark.parametrize("start, end, field", [
        (math.nan, math.nan, "start_rate"),
        (math.inf, 1.0, "start_rate"),
        (1.0, math.nan, "end_rate"),
        (1.0, -math.inf, "end_rate"),
    ])
    def test_phase_rejects_non_finite_rates(self, start, end, field):
        # a nan rate used to give a silent zero-traffic phase
        with pytest.raises(ValueError, match=field):
            LoadPhase(10, start, end)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_cohort_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="weight"):
            UserCohort("bad", weight=weight)

    @pytest.mark.parametrize("names", [("x", "x"), ("a", "b", "a")])
    def test_generator_rejects_duplicate_cohort_names(self, names):
        # same-named cohorts would share one route_key range
        cohorts = tuple(UserCohort(name, n_users=4) for name in names)
        with pytest.raises(ValueError, match="name"):
            LoadGenerator(LoadProfile.steady(1.0, 10), cohorts=cohorts)


_weights = st.lists(
    st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=6
)


def _choice_arrivals(profile, cohorts, seed, ticks):
    """The request stream drawn with ``Generator.choice``: the oracle."""
    rng = np.random.default_rng(seed)
    weights = np.array([c.weight for c in cohorts], dtype=float)
    p = weights / weights.sum()
    out = []
    for tick in range(ticks):
        rate = profile.rate_at(tick)
        for _ in range(int(rng.poisson(rate)) if rate > 0 else 0):
            cohort = cohorts[int(rng.choice(len(cohorts), p=p))]
            user = int(rng.integers(cohort.n_users))
            payload = rng.bytes(cohort.payload_bytes)
            offset = sum(c.n_users for c in cohorts if c.name < cohort.name)
            out.append((cohort.name, user + offset, payload))
    return out, rng.bit_generator.state


class TestCohortDrawMatchesChoice:
    """One ``random()`` double and a right-bisect of numpy's own cdf
    draw exactly what ``Generator.choice(n, p=...)`` draws."""

    @settings(max_examples=200, deadline=None)
    @given(weights=_weights, seed=st.integers(0, 2**32 - 1),
           draws=st.integers(1, 50))
    def test_bisect_equals_choice(self, weights, seed, draws):
        w = np.array(weights, dtype=float)
        p = w / w.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        by_choice = np.random.default_rng(seed)
        by_bisect = np.random.default_rng(seed)
        for _ in range(draws):
            assert bisect.bisect_right(cdf, by_bisect.random()) == int(
                by_choice.choice(len(weights), p=p)
            )
            # interleaved draws of another kind stay in step
            assert by_bisect.integers(97) == by_choice.integers(97)
        assert by_bisect.bit_generator.state == by_choice.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(
        cohorts=st.lists(
            st.builds(
                UserCohort,
                name=st.text("abcdef", min_size=1, max_size=3),
                weight=st.floats(min_value=1e-6, max_value=1e6),
                payload_bytes=st.integers(0, 8),
                n_users=st.integers(1, 40),
            ),
            min_size=1, max_size=6, unique_by=lambda c: c.name,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_stream_equals_choice_stream(self, cohorts, seed):
        profile = LoadProfile.ramp(1.0, 6.0, 12)
        gen = LoadGenerator(profile, cohorts=tuple(cohorts), seed=seed)
        stream = [
            (req.cohort, req.route_key, req.payload)
            for tick in range(12) for req in gen.arrivals(tick)
        ]
        expected, state = _choice_arrivals(profile, cohorts, seed, 12)
        assert stream == expected
        assert gen.rng.bit_generator.state == state


class _CountingGenerator(np.random.Generator):
    """A ``Generator`` over the same bit generator that counts ``choice``."""

    calls = 0

    def choice(self, *args, **kwargs):
        type(self).calls += 1
        return super().choice(*args, **kwargs)


def test_serve_at_scale_arm_makes_no_choice_call(monkeypatch):
    """The E17 arm at seed 0 draws every cohort without ``choice``
    (E15 has no load generator: its arrivals come from the campaign)."""
    from repro.analysis.experiments import CAMPAIGNS, EXPERIMENTS, campaign_arm

    built = []
    real_init = LoadGenerator.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.rng = _CountingGenerator(self.rng.bit_generator)
        built.append(self)

    monkeypatch.setattr(LoadGenerator, "__init__", init)
    monkeypatch.setattr(_CountingGenerator, "calls", 0)
    spec = CAMPAIGNS["E17"]
    campaign_arm(
        spec.trace_arm, experiment_id="E17", seed=0,
        fleet=spec.trace_fleet, **EXPERIMENTS["E17"].ci,
    )
    assert len(built) == 1 and built[0].generated > 0
    assert _CountingGenerator.calls == 0
