"""Serving layer units: replicas, router, and the robustness toolkit."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.silicon.golden import golden_cache
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.hashing import crc64, golden_crc64


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


#: CRC-64's generator polynomial as a 9-byte message: its CRC is 0, so
#: any two 9-byte payloads that differ by it collide
CRC64_POLY_BYTES = bytes.fromhex("0142F0E1EBA9EA3693")

#: client-core defects on the ops the CRC combine runs: none, or one
#: stuck bit on one of them (per-op path, rng draws on each op)
CLIENT_DEFECTS = st.sampled_from([None, Op.XOR, Op.SHL, Op.SHR])


def _client(defect_op, seed):
    defects = () if defect_op is None else (
        StuckBitDefect("d0", bit=5, base_rate=0.2, ops=[defect_op]),
    )
    return Core("client/c00", defects=defects, rng=np.random.default_rng(seed))


def _flip(data: bytes, bit: int) -> bytes:
    if not data:
        return data
    index = (bit // 8) % len(data)
    return data[:index] + bytes([data[index] ^ 1 << bit % 8]) + data[index + 1:]


@st.composite
def sent_and_response(draw):
    """Equal bytes, a one-bit flip, a random pair, or a CRC collision."""
    sent = draw(st.binary(max_size=40))
    kind = draw(st.sampled_from(["equal", "flip", "random", "collision"]))
    if kind == "equal":
        return sent, bytes(sent)
    if kind == "flip":
        return sent, _flip(sent, draw(st.integers(0, 319)))
    if kind == "random":
        return sent, draw(st.binary(max_size=40))
    sent = draw(st.binary(min_size=9, max_size=9))
    return sent, bytes(a ^ b for a, b in zip(sent, CRC64_POLY_BYTES))


class TestValidatorDifferential:
    """The validator with the golden cache on (CRCs computed only when
    the bytes differ) against the per-op reference: each side's CRC
    computed op by op on the client core, as ``crc64`` does with the
    cache off."""

    def test_the_polynomial_collides(self):
        assert golden_crc64(CRC64_POLY_BYTES) == 0

    @settings(max_examples=150, deadline=None)
    @given(pair=sent_and_response(), defect_op=CLIENT_DEFECTS,
           seed=st.integers(0, 2**16), repeats=st.integers(1, 3))
    @example(pair=(b"hello world", b"hello world"), defect_op=None, seed=0,
             repeats=1)
    @example(pair=(bytes(9), CRC64_POLY_BYTES), defect_op=None, seed=0,
             repeats=1)
    def test_matches_the_per_op_reference(self, pair, defect_op, seed, repeats):
        sent, response = pair
        reference = _client(defect_op, seed)
        with golden_cache(False):
            expected = crc64(reference, sent)
            verdicts = [
                crc64(reference, response) == expected for _ in range(repeats)
            ]
        core = _client(defect_op, seed)
        validator = ResponseValidator(core)
        with golden_cache(True):
            checksum = validator.checksum(sent)
            got = [validator.validate(checksum, response) for _ in range(repeats)]
        assert got == verdicts
        assert validator.checks == repeats
        assert validator.mismatches == verdicts.count(False)
        assert core.ops_executed == reference.ops_executed
        assert core.corruptions_induced == reference.corruptions_induced
        assert core.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_healthy_client_keeps_the_bytes_and_crcs_only_a_mismatch(
        self, kernels_on, count_calls
    ):
        from repro.serving import robustness

        crcs = count_calls(robustness, "golden_crc64")
        validator = ResponseValidator(Core("client/c00"))
        checksum = validator.checksum(b"hello world")
        assert checksum == b"hello world"
        assert validator.validate(checksum, b"hello world")
        assert len(crcs) == 0
        assert not validator.validate(checksum, b"hellp world")
        assert len(crcs) == 2
        assert validator.client_core.ops_executed == 3 * 4 * 11

    def test_offline_client_raises_where_the_per_op_path_does(self):
        core = Core("client/c00")
        core.set_online(False)
        validator = ResponseValidator(core)
        with pytest.raises(CoreOfflineError):
            validator.checksum(b"x")
        assert validator.checksum(b"") == 0  # no op issued, nothing raised
        with pytest.raises(CoreOfflineError):
            validator.validate(0, b"x")


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
        board = BreakerBoard(event_log=log)
        for t in range(BREAKER_FAILURE_THRESHOLD):
            board.record_failure("m0/c00", 1.0 + t, "checksum mismatch")
        trips = [e for e in log if e.kind is EventKind.BREAKER_TRIP]
        assert len(trips) == 1
        assert trips[0].core_id == "m0/c00"
        assert trips[0].machine_id == "m0"
        assert board.total_trips == 1


class _ScanEveryBreaker(BreakerBoard):
    """The reference board: asks every breaker it holds."""

    def open_core_ids(self, now_ms: float) -> set[str]:
        return {
            core_id
            for core_id, breaker in self._breakers.items()
            if not breaker.allows(now_ms)
        }


BOARD_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("fail"), st.integers(0, 2)),
        st.tuples(st.just("ok"), st.integers(0, 2)),
        st.tuples(st.just("allows"), st.integers(0, 2)),
        st.tuples(st.just("clock"), st.floats(0.0, 150.0)),
        st.tuples(st.just("open"), st.none()),
    ),
    max_size=80,
)

#: three failures trip c00; a success while OPEN leaves it OPEN
_SUCCESS_WHILE_OPEN = [("fail", 0)] * BREAKER_FAILURE_THRESHOLD + [
    ("ok", 0), ("open", None), ("clock", PROBE_MS), ("open", None),
    ("ok", 0), ("open", None),
]


class TestBreakerBoardDifferential:
    """``open_core_ids`` asks only the breakers that tripped and have
    not closed; a scan of every breaker must agree, side effects
    included (asking a cooled-down OPEN breaker makes it HALF_OPEN)."""

    @settings(max_examples=200, deadline=None)
    @given(steps=BOARD_STEPS)
    @example(steps=_SUCCESS_WHILE_OPEN)
    def test_matches_a_scan_of_every_breaker(self, steps):
        board, reference = BreakerBoard(), _ScanEveryBreaker()
        now = 0.0
        for action, arg in steps:
            if action == "clock":
                now += arg
                continue
            if action == "open":
                assert board.open_core_ids(now) == reference.open_core_ids(now)
            else:
                core_id = f"m0/c{arg:02d}"
                if action == "fail":
                    assert board.record_failure(core_id, now) == (
                        reference.record_failure(core_id, now)
                    )
                elif action == "ok":
                    board.record_success(core_id, now)
                    reference.record_success(core_id, now)
                else:
                    assert board.allows(core_id, now) == (
                        reference.allows(core_id, now)
                    )
            assert {
                core_id: (breaker.state, breaker.trips)
                for core_id, breaker in board._breakers.items()
            } == {
                core_id: (breaker.state, breaker.trips)
                for core_id, breaker in reference._breakers.items()
            }

    def test_asking_moves_a_cooled_down_breaker_to_half_open(self):
        board = BreakerBoard()
        for t in range(BREAKER_FAILURE_THRESHOLD):
            board.record_failure("m0/c00", float(t))
        assert board.open_core_ids(10.0) == {"m0/c00"}
        assert board.open_core_ids(PROBE_MS) == set()
        assert board.breaker("m0/c00").state is BreakerState.HALF_OPEN
        board.record_success("m0/c00", PROBE_MS + 1)
        assert board.breaker("m0/c00").state is BreakerState.CLOSED
        assert board._unclosed == {}


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
