"""Instruction-level checking arms: policies, campaigns, the E18 grid.

The load-bearing physics pinned here:

- ITHICA (same-core duplication) catches probabilistic CEEs and is
  *blind* to deterministic ones — both executions corrupt identically;
- MEEK (cross-core checker) catches deterministic CEEs, and its
  bounded check-lag queue drops coverage honestly when overrun;
- RepTFD (checkpointed replay) both detects and *corrects* via
  rollback to another core;
- campaign scorecards are byte-identical with observability on or off
  and regardless of engine worker count.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core.events import EventKind
from repro.mitigation.checkpoint import GranuleFailedError
from repro.mitigation.instrcheck import policies
from repro.mitigation.instrcheck import (
    ARMS,
    InstrCheckCampaign,
    InstrCheckConfig,
    InstrCheckStats,
    IthicaCheckedCore,
    MeekCheckedCore,
    OpSampler,
    ReplayChecker,
    build_instrcheck_fleet,
    result_digest,
)
from repro.silicon.assembler import assemble
from repro.silicon.core import Core
from repro.silicon.defects import OperandPatternDefect, StuckBitDefect
from repro.silicon.golden import golden_execute
from repro.silicon.units import FunctionalUnit, Op
from repro.silicon.vm import Vm
from repro.workloads.base import OpCountingCore
from repro.workloads.hashing import crc64


def _healthy(core_id="ic/h", seed=0):
    return Core(core_id, rng=np.random.default_rng(seed))


def _probabilistic_bad(core_id="ic/prob", rate=0.3, seed=1):
    """Stuck bit that corrupts a random subset of ALU ops."""
    return Core(
        core_id,
        defects=[StuckBitDefect("d", bit=13, base_rate=rate,
                                unit=FunctionalUnit.ALU)],
        rng=np.random.default_rng(seed),
    )


def _deterministic_bad(core_id="ic/det", seed=2):
    """Operand-pattern defect: *always* wrong on matching operands."""
    return Core(
        core_id,
        defects=[OperandPatternDefect("d", mask=0x0, value=0x0,
                                      error=1 << 9, base_rate=1.0,
                                      unit=FunctionalUnit.ALU)],
        rng=np.random.default_rng(seed),
    )


def _unit(n_ops=12, seed=5):
    rng = np.random.default_rng(seed)
    return tuple(
        (Op.ADD, (int(rng.integers(1 << 16)), int(rng.integers(1 << 16))))
        for _ in range(n_ops)
    )


class TestOpSampler:
    def test_rate_one_takes_everything(self):
        sampler = OpSampler(1.0)
        assert all(sampler.take() for _ in range(50))

    def test_rate_zero_takes_nothing(self):
        sampler = OpSampler(0.0)
        assert not any(sampler.take() for _ in range(50))

    def test_fractional_rate_is_deterministic_and_plausible(self):
        sampler_a = OpSampler(0.33, seed=9)
        sampler_b = OpSampler(0.33, seed=9)
        taken_a = [sampler_a.take() for _ in range(600)]
        taken_b = [sampler_b.take() for _ in range(600)]
        assert taken_a == taken_b  # counter-hash, not RNG stream
        assert 0.2 < sum(taken_a) / 600 < 0.5

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            OpSampler(1.5)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5, 2**64 + 7])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.33, 1.0])
    def test_block_decisions_equal_the_scalar_hash(self, seed, rate):
        """Decisions are made a block of counters at a time; each must
        be the scalar ``_hash01(seed, counter) < rate``, across blocks."""
        sampler = OpSampler(rate, seed=seed)
        n = 2 * policies._SAMPLER_BLOCK + 10
        taken = [sampler.take() for _ in range(n)]
        assert taken == [
            policies._hash01(seed, counter) < rate for counter in range(1, n + 1)
        ]

    def test_interleaved_samplers_with_one_seed_stay_independent(self):
        alone = OpSampler(0.33, seed=9)
        want = [alone.take() for _ in range(2500)]
        first, second = OpSampler(0.33, seed=9), OpSampler(0.33, seed=9)
        got_first, got_second = [], []
        for index in range(2500):
            got_first.append(first.take())
            if index % 3 == 0:
                got_second.append(second.take())
        assert got_first == want
        assert got_second == want[:len(got_second)]

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.sampled_from((0.0, 0.01, 0.33, 0.99, 1.0)),
        seed=st.integers(min_value=0, max_value=2**64),
        runs=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=2500)),
            max_size=6,
        ),
    )
    @example(rate=0.33, seed=0, runs=[(True, 1023), (False, 1), (True, 1)])
    @example(rate=0.33, seed=0, runs=[(True, 1024), (False, 1)])
    @example(rate=0.33, seed=0, runs=[(False, 1023), (True, 2), (False, 1)])
    @example(rate=0.33, seed=0, runs=[(True, 2 * 1024 + 7), (False, 3)])
    def test_take_count_equals_that_many_takes(self, rate, seed, runs):
        """Runs counted in bulk and runs taken one by one, interleaved
        across block edges, select what ``take`` alone selects and leave
        the sampler where it leaves it."""
        bulk, single = OpSampler(rate, seed=seed), OpSampler(rate, seed=seed)
        for counted, n in runs:
            want = sum(single.take() for _ in range(n))
            if counted:
                got = bulk.take_count(n)
            else:
                got = sum(bulk.take() for _ in range(n))
            assert got == want
            assert bulk._counter == single._counter


class TestResultDigest:
    def test_scalar_and_tuple(self):
        assert result_digest(7) == result_digest(7)
        assert result_digest((1, 2)) != result_digest((2, 1))
        assert result_digest(3) != result_digest(4)


class TestIthica:
    def test_healthy_core_never_mismatches(self):
        wrapper = IthicaCheckedCore(_healthy(), sample_rate=1.0)
        for op, operands in _unit(40):
            wrapper.execute(op, *operands)
        assert wrapper.stats.mismatches == 0
        assert wrapper.stats.payload_ops == 40
        assert wrapper.stats.check_ops == 40
        assert wrapper.stats.slowdown_factor == 2.0

    def test_catches_probabilistic_defect(self):
        caught = []
        wrapper = IthicaCheckedCore(
            _probabilistic_bad(rate=0.4), sample_rate=1.0,
            on_mismatch=lambda c, op, tag: caught.append((c, op, tag)),
        )
        wrapper.tag = 17
        for op, operands in _unit(60):
            wrapper.execute(op, *operands)
        assert wrapper.stats.mismatches > 0
        assert caught and caught[0][0] == "ic/prob" and caught[0][2] == 17

    def test_hashes_only_where_the_two_answers_differ(self, monkeypatch):
        """Equal values have equal digests, so an untargeted op costs a
        compare and no digest; the stats are what hashing both gave."""
        digests = []

        def counting(result, digest=policies.result_digest):
            digests.append(result)
            return digest(result)

        monkeypatch.setattr(policies, "result_digest", counting)
        wrapper = IthicaCheckedCore(_healthy(), sample_rate=0.33, seed=7)
        for op, operands in _unit(500):
            wrapper.execute(op, *operands)
        assert digests == []
        assert wrapper.stats == InstrCheckStats(
            payload_ops=500, check_ops=166, ops_sampled=166)

        core = _probabilistic_bad(rate=0.5)
        wrapper = IthicaCheckedCore(core, sample_rate=1.0)
        for op, operands in _unit(200):
            wrapper.execute(op, *operands)
        assert wrapper.stats == InstrCheckStats(
            payload_ops=200, check_ops=200, ops_sampled=200, mismatches=104)
        assert len(digests) == 2 * 104
        assert core.corruptions_induced == 210

    def test_blind_to_deterministic_defect(self):
        """The §2 self-inverting story: both executions flow through
        the same broken structure and corrupt identically, so the
        duplicate can never disagree — even at 100% sampling."""
        core = _deterministic_bad()
        wrapper = IthicaCheckedCore(core, sample_rate=1.0)
        for op, operands in _unit(60):
            wrapper.execute(op, *operands)
        assert core.corruptions_induced > 0  # it IS miscomputing
        assert wrapper.stats.mismatches == 0  # and ITHICA cannot see it

    @pytest.mark.usefixtures("kernels_on")
    def test_credit_needs_a_plain_core(self, execute_calls):
        """An untargeted stream through ITHICA on a plain core is one
        credit; a wrapped inner core and MEEK see every op."""
        data = b"sixteen bytes..."
        credited = IthicaCheckedCore(_healthy(), sample_rate=0.33, seed=3)
        crc64(credited, data)
        assert execute_calls == []
        assert credited.stats.payload_ops == 4 * len(data)
        assert credited.inner.ops_executed == 4 * len(data) + credited.stats.check_ops

        nested = IthicaCheckedCore(OpCountingCore(_healthy()), 0.33, seed=3)
        meek = MeekCheckedCore(_healthy(), _healthy("ic/checker"), 0.33, seed=3)
        for wrapper in (nested, meek):
            execute_calls.clear()
            crc64(wrapper, data)
            assert wrapper.stats.payload_ops == 4 * len(data)
            assert len(execute_calls) == 4 * len(data) + (
                0 if wrapper is meek else wrapper.stats.check_ops)


class TestMeek:
    def test_cross_core_catches_deterministic_defect(self):
        caught = []
        wrapper = MeekCheckedCore(
            _deterministic_bad(), _healthy("ic/checker"), sample_rate=1.0,
            on_mismatch=lambda c, op, tag: caught.append(c),
        )
        for op, operands in _unit(30):
            wrapper.execute(op, *operands)
        assert wrapper.stats.mismatches == 0  # nothing checked yet
        drained = wrapper.flush()
        assert drained == 30
        assert wrapper.stats.mismatches == 30
        assert set(caught) == {"ic/det"}  # blamed on the primary

    def test_flush_budget_and_lag(self):
        wrapper = MeekCheckedCore(
            _healthy(), _healthy("ic/checker", seed=3), sample_rate=1.0,
        )
        for op, operands in _unit(20):
            wrapper.execute(op, *operands)
        assert wrapper.lag == 20
        assert wrapper.flush(6) == 6
        assert wrapper.lag == 14

    def test_bounded_queue_drops_oldest_and_reports(self):
        overflows = []
        wrapper = MeekCheckedCore(
            _healthy(), _healthy("ic/checker", seed=3), sample_rate=1.0,
            lag_limit=8,
            on_overflow=lambda c, tag: overflows.append((c, tag)),
        )
        for op, operands in _unit(20):
            wrapper.execute(op, *operands)
        assert wrapper.lag == 8  # bounded
        assert wrapper.stats.lag_drops == 12
        assert len(overflows) == 12

    def test_lag_limit_validated(self):
        with pytest.raises(ValueError):
            MeekCheckedCore(_healthy(), _healthy("ic/c", seed=3),
                            sample_rate=1.0, lag_limit=0)


class TestReplayChecker:
    def test_divergence_rolls_back_to_healthy_core(self):
        """RepTFD detects *and corrects*: the granule diverges on the
        defective primary, rolls back, and re-runs on the next pool
        core — the returned digests match golden execution."""
        divergences = []
        bad = _deterministic_bad()
        checker = ReplayChecker(
            [bad, _healthy("ic/spare", seed=4)],
            _healthy("ic/replay", seed=5),
            sample_rate=1.0,
            on_divergence=lambda c, op, tag: divergences.append((c, tag)),
        )
        units = [_unit(8, seed=s) for s in range(3)]
        digests = checker.run_granule(units, tags=[10, 20, 30])
        expected = tuple(
            result_digest(
                tuple(
                    result_digest(golden_execute(op, *operands))
                    for op, operands in unit
                )
            )
            for unit in units
        )
        assert digests == expected
        assert divergences and divergences[0][0] == "ic/det"
        assert {tag for _c, tag in divergences} <= {10, 20, 30}
        assert checker.stats.replays >= 1
        assert checker.stats.mismatches >= 1

    def test_unsampled_granule_is_not_replayed(self):
        checker = ReplayChecker(
            [_deterministic_bad()], _healthy("ic/replay", seed=5),
            sample_rate=0.0,
        )
        digests = checker.run_granule([_unit(6)])
        assert len(digests) == 1
        assert checker.stats.replays == 0
        assert checker.stats.check_ops == 0

    def test_all_cores_bad_exhausts_pool(self):
        pool = [
            _deterministic_bad(f"ic/det{i}", seed=i) for i in range(2)
        ]
        checker = ReplayChecker(
            pool, _healthy("ic/replay", seed=5), sample_rate=1.0,
        )
        with pytest.raises(GranuleFailedError):
            checker.run_granule([_unit(6)])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ReplayChecker([], _healthy())


def _run_arm(arm, prevalence=0.25, rate=1.0, units=96, seed=3, **cfg):
    machines, bad = build_instrcheck_fleet(prevalence=prevalence, seed=10)
    config = InstrCheckConfig(units=units, sample_rate=rate, **cfg)
    campaign = InstrCheckCampaign(machines, arm, config, seed=seed)
    return campaign, campaign.run(), bad


class TestCampaign:
    def test_unknown_arm_rejected(self):
        machines, _ = build_instrcheck_fleet()
        with pytest.raises(ValueError):
            InstrCheckCampaign(machines, "tmr")

    def test_fleet_builder_places_bad_cores_in_lanes(self):
        machines, bad = build_instrcheck_fleet(prevalence=0.25)
        assert len(bad) == 2
        # Low global indices: the kernel hands these to lanes first.
        assert all(core_id.startswith("m00000/") for core_id in bad)

    def test_scorecard_accounting_closes(self):
        for arm in ARMS:
            _campaign, card, _bad = _run_arm(arm, units=64)
            assert card.units_total == 64
            assert card.units_delivered + card.units_crashed <= 64
            assert 0.0 <= card.coverage <= 1.0
            assert card.slowdown_factor >= 1.0
            json.dumps(card.to_json())  # JSON-safe

    def test_ithica_blind_meek_sighted_on_deterministic_core(self):
        """The headline E18 contrast at the prevalence step that adds
        a deterministic operand-pattern core."""
        _c1, ithica, bad = _run_arm("ithica", units=192)
        _c2, meek, _ = _run_arm("meek", units=192)
        det_core = bad[1]  # even global index -> OperandPatternDefect
        assert ithica.cees_escaped > 0
        assert det_core not in ithica.quarantine_tick
        assert meek.coverage > ithica.coverage
        assert det_core in meek.quarantine_tick

    def test_meek_full_rate_overruns_checker(self):
        campaign, card, _bad = _run_arm("meek", rate=1.0, units=128)
        assert card.lag_drops > 0
        assert any(
            e.kind is EventKind.CHECKER_LAG_OVERFLOW
            for e in campaign.events
        )
        # Overflow is lost coverage, not evidence: the breadcrumbs are
        # unattributed so healthy primaries are never condemned by them.
        assert all(
            e.core_id is None
            for e in campaign.events
            if e.kind is EventKind.CHECKER_LAG_OVERFLOW
        )

    def test_reptfd_corrects_what_it_catches(self):
        _campaign, card, _bad = _run_arm("reptfd", rate=1.0)
        assert card.cees_caught > 0
        assert card.cees_escaped == 0
        assert card.flagged_clean_units > 0  # rollback delivered truth
        assert card.replays > 0

    def test_screen_catches_cores_not_results(self):
        campaign, card, bad = _run_arm(
            "screen", rate=1.0, units=192, screen_interval_ticks=1
        )
        assert card.cees_caught == 0  # no in-flight checking at all
        assert card.screen_fails > 0
        assert set(bad) <= set(card.quarantine_tick)

    def test_catches_feed_quarantine_and_forensics(self):
        campaign, card, bad = _run_arm("meek", units=192)
        assert set(bad) <= set(card.quarantine_tick)
        for core_id in bad:
            assert core_id in card.first_corrupt_tick
            assert card.quarantine_tick[core_id] >= \
                card.first_corrupt_tick[core_id]
        assert set(card.detection_latency_ms) >= set(bad)
        kinds = {e.kind for e in campaign.events}
        assert EventKind.INSTRCHECK_MISMATCH in kinds

    def test_same_seed_is_reproducible(self):
        _c1, a, _ = _run_arm("reptfd", units=48)
        _c2, b, _ = _run_arm("reptfd", units=48)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)


@pytest.fixture
def obs_state():
    prior = obs.enabled()
    yield
    obs.set_enabled(prior)
    obs.metrics.reset()
    obs.tracer.reset()


class TestObservability:
    def test_declared_metrics_and_spans_emitted(self, obs_state):
        obs.set_enabled(True)
        obs.metrics.reset()
        obs.tracer.reset()
        _c, card, _ = _run_arm("reptfd", rate=1.0, units=64)
        families = set(obs.metrics.names())
        assert "instrcheck_ops_checked_total" in families
        assert "instrcheck_mismatches_total" in families
        assert "instrcheck_replays_total" in families
        assert "instrcheck_quarantines_total" in families
        spans = obs.tracer.drain()
        names = {span.name for span in spans}
        assert "instrcheck.unit" in names
        assert "instrcheck.replay" in names


class TestVmHook:
    SOURCE = """
        li r1, 10
        li r2, 0
        li r3, 1
    loop:
        add r2, r2, r1
        sub r1, r1, r3
        bne r1, r0, loop
        halt
    """

    def test_vm_runs_on_checked_core(self):
        """The VM's core parameter is the op-stream hook point: a
        checking wrapper slots in unchanged."""
        wrapper = IthicaCheckedCore(_healthy("vm/h"), sample_rate=1.0)
        result = Vm(wrapper).run(assemble(self.SOURCE))
        assert result.halted
        assert result.registers[2] == 55
        assert wrapper.stats.payload_ops > 0
        assert wrapper.stats.mismatches == 0

    def test_meek_wrapped_vm_catches_defective_core(self):
        wrapper = MeekCheckedCore(
            _deterministic_bad("vm/det"), _healthy("vm/checker", seed=8),
            sample_rate=1.0,
        )
        result = Vm(wrapper).run(assemble(self.SOURCE))
        assert result.halted
        wrapper.flush()
        assert wrapper.stats.mismatches > 0

