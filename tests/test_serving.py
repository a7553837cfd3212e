"""Serving layer units: replicas, router, and the robustness toolkit."""

import numpy as np
import pytest

from repro.core.events import EventKind, EventLog
from repro.serving.robustness import (
    BREAKER_COOLDOWN_MS,
    BREAKER_FAILURE_THRESHOLD,
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    HardeningConfig,
    LoadShedder,
    ResponseValidator,
    backoff_ms,
)
from repro.serving.cluster import RoundRobinRouter
from repro.serving.service import Request, ServerReplica
from repro.silicon.core import Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.units import FunctionalUnit


def _replica(core_id="srv/c00", defects=(), seed=0, **kwargs) -> ServerReplica:
    core = Core(core_id, defects=defects, rng=np.random.default_rng(seed))
    return ServerReplica(core_id, core, **kwargs)


def _bad_replica(core_id="srv/bad", base_rate=1.0, seed=0) -> ServerReplica:
    defect = StuckBitDefect(
        "d0", bit=7, base_rate=base_rate, unit=FunctionalUnit.LOAD_STORE
    )
    return _replica(core_id, defects=(defect,), seed=seed)


def _request(payload=b"0123456789abcdef", request_id=0) -> Request:
    return Request(request_id=request_id, payload=payload, deadline_ms=50.0)


class TestServerReplica:
    def test_healthy_replica_echoes_payload(self, rng):
        replica = _replica()
        payload, latency = replica.serve(_request(), rng)
        assert payload == b"0123456789abcdef"
        assert latency > 0.0

    def test_mercurial_replica_corrupts_but_stays_well_formed(self, rng):
        replica = _bad_replica(base_rate=1.0)
        request = _request()
        payload, _ = replica.serve(request, rng)
        assert payload != request.payload      # corrupted...
        assert len(payload) == len(request.payload)  # ...but well-formed

    def test_offline_core_raises(self, rng):
        replica = _replica()
        replica.core.set_online(False)
        with pytest.raises(CoreOfflineError):
            replica.serve(_request(), rng)

    def test_forced_mce_raises_and_decrements(self, rng):
        replica = _replica()
        replica.forced_mce_remaining = 1
        with pytest.raises(MachineCheckError):
            replica.serve(_request(), rng)
        payload, _ = replica.serve(_request(), rng)
        assert payload == _request().payload


class TestRouter:
    def test_round_robin_spreads_load(self):
        replicas = [_replica(f"srv/c{i:02d}", seed=i) for i in range(3)]
        router = RoundRobinRouter(replicas)
        picked = [router.pick().core_id for _ in range(6)]
        assert picked == [
            "srv/c00", "srv/c01", "srv/c02",
            "srv/c00", "srv/c01", "srv/c02",
        ]

    def test_pick_honours_exclusions(self):
        replicas = [_replica(f"srv/c{i:02d}", seed=i) for i in range(3)]
        router = RoundRobinRouter(replicas)
        picked = router.pick(exclude_core_ids={"srv/c00", "srv/c01"})
        assert picked.core_id == "srv/c02"

    def test_pick_skips_offline_and_returns_none_when_drained(self):
        replicas = [_replica(f"srv/c{i:02d}", seed=i) for i in range(2)]
        for replica in replicas:
            replica.core.set_online(False)
        router = RoundRobinRouter(replicas)
        assert router.pick() is None


class TestValidator:
    def test_validator_passes_intact_payload(self):
        validator = ResponseValidator(
            Core("client/c00", rng=np.random.default_rng(0))
        )
        checksum = validator.checksum(b"hello world")
        assert validator.validate(checksum, b"hello world")
        assert validator.mismatches == 0

    def test_validator_catches_single_bit_corruption(self):
        validator = ResponseValidator(
            Core("client/c00", rng=np.random.default_rng(0))
        )
        checksum = validator.checksum(b"hello world")
        assert not validator.validate(checksum, b"hellp world")
        assert validator.mismatches == 1


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        class NoJitter:
            def random(self):
                return 0.0

        delays = [backoff_ms(i, NoJitter()) for i in range(6)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 32.0, 40.0]

    def test_jitter_stays_in_band(self):
        # jitter 0.5 keeps each delay in [delay / 2, delay]
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 1.0 <= backoff_ms(0, rng) <= 2.0
            assert 20.0 <= backoff_ms(9, rng) <= 40.0


def _trip(breaker, at=0.0):
    """Record the failures that trip a closed breaker at ``at``."""
    tripped = [
        breaker.record_failure(at) for _ in range(BREAKER_FAILURE_THRESHOLD)
    ]
    assert tripped[-1] and not any(tripped[:-1])


#: the first moment a breaker tripped at 0 lets probes through
PROBE_MS = BREAKER_COOLDOWN_MS + 10.0


class TestCircuitBreaker:
    def test_trips_after_threshold_within_window(self):
        breaker = CircuitBreaker("c0")
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(10.0)
        assert breaker.record_failure(20.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows(50.0)

    def test_old_failures_age_out_of_window(self):
        breaker = CircuitBreaker("c0")
        breaker.record_failure(0.0)
        breaker.record_failure(10.0)
        assert not breaker.record_failure(500.0)  # first two aged out
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close_on_success(self):
        breaker = CircuitBreaker("c0")
        _trip(breaker)
        assert not breaker.allows(10.0)
        assert breaker.allows(PROBE_MS)  # cooldown elapsed -> half-open probe
        breaker.record_success(PROBE_MS + 1)
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("c0")
        _trip(breaker)
        assert breaker.allows(PROBE_MS)
        assert breaker.record_failure(PROBE_MS + 1)
        assert breaker.state is BreakerState.OPEN

    def test_open_to_half_open_exactly_at_cooldown_boundary(self):
        breaker = CircuitBreaker("c0")
        _trip(breaker)
        assert not breaker.allows(BREAKER_COOLDOWN_MS - 0.1)  # still cooling
        assert breaker.state is BreakerState.OPEN
        assert breaker.allows(BREAKER_COOLDOWN_MS)   # inclusive boundary
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_survives_repeated_allows_until_verdict(self):
        breaker = CircuitBreaker("c0")
        _trip(breaker)
        assert breaker.allows(PROBE_MS)
        # more probe traffic is allowed while the verdict is pending
        assert breaker.allows(PROBE_MS + 1)
        assert breaker.allows(PROBE_MS + 2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_clears_failure_history(self):
        breaker = CircuitBreaker("c0")
        _trip(breaker)
        assert breaker.state is BreakerState.OPEN
        assert breaker.allows(PROBE_MS)              # half-open probe
        breaker.record_success(PROBE_MS + 1)
        assert breaker.state is BreakerState.CLOSED
        # the pre-trip failures (still inside the window) must not
        # count toward the next trip
        for t in range(BREAKER_FAILURE_THRESHOLD - 1):
            assert not breaker.record_failure(PROBE_MS + 2 + t)
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker("c0")
        _trip(breaker)
        assert breaker.allows(PROBE_MS)
        reopened = PROBE_MS + 10.0
        assert breaker.record_failure(reopened)      # failed probe re-trips
        assert breaker.trips == 2
        assert not breaker.allows(reopened + BREAKER_COOLDOWN_MS - 0.1)
        assert breaker.allows(reopened + BREAKER_COOLDOWN_MS)

    def test_board_emits_trip_event(self):
        log = EventLog()
        board = BreakerBoard(event_log=log, machine_of={"m0/c00": "m0"})
        for t in range(BREAKER_FAILURE_THRESHOLD):
            board.record_failure("m0/c00", 1.0 + t, "checksum mismatch")
        trips = [e for e in log if e.kind is EventKind.BREAKER_TRIP]
        assert len(trips) == 1
        assert trips[0].core_id == "m0/c00"
        assert trips[0].machine_id == "m0"
        assert board.total_trips == 1


class TestLoadShedder:
    """Admission refuses work beyond ``MAX_QUEUE_FACTOR`` (3) ticks of
    capacity: 30 queued requests at a capacity of 10."""

    def test_admits_everything_under_capacity(self):
        shedder = LoadShedder()
        assert shedder.admit(queue_len=0, arrivals=5, capacity=10) == 5
        assert shedder.shed_count == 0

    def test_sheds_past_queue_limit(self):
        shedder = LoadShedder()
        admitted = shedder.admit(queue_len=28, arrivals=10, capacity=10)
        assert admitted == 2   # limit 30, room for 2
        assert shedder.shed_count == 8

    def test_queue_exactly_at_limit_admits_nothing(self):
        shedder = LoadShedder()
        assert shedder.admit(queue_len=30, arrivals=5, capacity=10) == 0
        assert shedder.shed_count == 5

    def test_one_slot_below_limit_admits_exactly_one(self):
        shedder = LoadShedder()
        assert shedder.admit(queue_len=29, arrivals=5, capacity=10) == 1
        assert shedder.shed_count == 4

    def test_arrivals_filling_queue_to_exactly_the_limit_all_admit(self):
        shedder = LoadShedder()
        assert shedder.admit(queue_len=25, arrivals=5, capacity=10) == 5
        assert shedder.shed_count == 0

    def test_limit_never_drops_below_one_ticks_capacity(self):
        # a full tick's arrivals into an empty queue are never shed
        shedder = LoadShedder()
        assert shedder.admit(queue_len=0, arrivals=10, capacity=10) == 10
        assert shedder.shed_count == 0


class TestHardeningConfig:
    def test_unhardened_disables_everything(self):
        config = HardeningConfig.unhardened()
        assert not config.validate
        assert not config.retry
        assert not config.hedge
        assert not config.breaker
        assert not config.shed

    def test_validator_only_drops_breaker_keeps_validation(self):
        config = HardeningConfig.validator_only()
        assert config.validate
        assert not config.breaker
        assert config.retry
