"""Second property-test battery: invariants of the defense stack."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.confidence import SuspicionTracker
from repro.core.policy import Action, PolicyConfig, QuarantinePolicy
from repro.mitigation.instrcheck import IthicaCheckedCore
from repro.mitigation.resilient.matfact import GF_PRIME, _gf_mul
from repro.silicon.aging import AgingProfile
from repro.silicon.assembler import assemble
from repro.silicon.catalog import NAMED_CASES, named_case
from repro.silicon.core import Core
from repro.silicon.defects import MachineCheckDefect, StuckBitDefect
from repro.silicon.environment import DvfsTable
from repro.silicon.errors import CoreOfflineError, MachineCheckError
from repro.silicon.golden import golden_cache
from repro.silicon.sensitivity import (
    ComposedSensitivity,
    FrequencySensitivity,
    ThermalSensitivity,
    VoltageMarginSensitivity,
)
from repro.silicon.units import FunctionalUnit, Op
from repro.silicon.vm import Vm
from repro.workloads.base import OpCountingCore
from repro.workloads.compression import (
    MAX_MATCH,
    compress,
    compression_workload,
    decompress,
)
from repro.workloads.copying import copy_bytes
from repro.workloads.crypto import decrypt_block, encrypt_block, expand_key
from repro.workloads.database import BTreeIndex, database_workload
from repro.workloads.hashing import crc64, fnv1a, mix64
from repro.workloads.locking import run_locked_counter
from repro.workloads.sorting import is_sorted_on, merge_sort

gf_element = st.integers(min_value=0, max_value=GF_PRIME - 1)


def _core(seed=0):
    return Core("propx/h", rng=np.random.default_rng(seed))


class TestGfFieldAxioms:
    @settings(max_examples=40, deadline=None)
    @given(a=gf_element, b=gf_element, c=gf_element)
    def test_mul_associative(self, a, b, c):
        core = _core()
        left = _gf_mul(core, _gf_mul(core, a, b), c)
        right = _gf_mul(core, a, _gf_mul(core, b, c))
        assert left == right

    @settings(max_examples=40, deadline=None)
    @given(a=gf_element, b=gf_element)
    def test_mul_commutative(self, a, b):
        core = _core()
        assert _gf_mul(core, a, b) == _gf_mul(core, b, a)

    @settings(max_examples=40, deadline=None)
    @given(a=gf_element)
    def test_one_is_identity(self, a):
        assert _gf_mul(_core(), a, 1) == a % GF_PRIME


class TestSuspicionInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(st.floats(min_value=0.1, max_value=5.0),
                         min_size=1, max_size=15),
        half_life=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_score_never_negative_and_bounded_by_sum(self, weights, half_life):
        tracker = SuspicionTracker(half_life_days=half_life, source_bonus=0.0)
        for index, weight in enumerate(weights):
            tracker.record("c", now_days=float(index), weight=weight)
        score = tracker.score("c", now_days=float(len(weights)))
        assert 0.0 <= score <= sum(weights) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(gap=st.floats(min_value=0.0, max_value=500.0))
    def test_decay_monotone_in_time(self, gap):
        tracker = SuspicionTracker(half_life_days=10.0)
        tracker.record("c", now_days=0.0, weight=4.0)
        now = tracker.score("c", 0.0)
        later = tracker.score("c", gap)
        assert later <= now + 1e-9


class TestPolicyInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        score=st.floats(min_value=0.0, max_value=100.0),
        confessed=st.booleans(),
    )
    def test_decision_is_total_and_consistent(self, score, confessed):
        policy = QuarantinePolicy(PolicyConfig(), fleet_cores=1000)
        decision = policy.decide("m0/c0", score, confessed=confessed)
        assert decision.action in Action
        if decision.action in (Action.QUARANTINE_CORE,
                               Action.QUARANTINE_MACHINE):
            # quarantine requires either a confession or a high score
            assert confessed or score >= PolicyConfig().quarantine_threshold

    @settings(max_examples=20, deadline=None)
    @given(scores=st.lists(st.floats(min_value=6.0, max_value=50.0),
                           min_size=1, max_size=30))
    def test_quarantine_never_exceeds_budget(self, scores):
        config = PolicyConfig(max_quarantined_fraction=0.01)
        policy = QuarantinePolicy(config, fleet_cores=200)
        for index, score in enumerate(scores):
            policy.decide(f"m{index:03d}/c00", score, confessed=True)
        assert len(policy.quarantined) <= max(
            1, int(config.max_quarantined_fraction * 200) + 1
        )


class TestSensitivityInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        freq_factor=st.floats(min_value=1.1, max_value=8.0),
        volt_factor=st.floats(min_value=1.1, max_value=5.0),
        thermal_factor=st.floats(min_value=1.1, max_value=3.0),
    )
    def test_multipliers_always_positive(self, freq_factor, volt_factor,
                                         thermal_factor):
        sensitivity = ComposedSensitivity([
            FrequencySensitivity(freq_factor),
            VoltageMarginSensitivity(volt_factor),
            ThermalSensitivity(thermal_factor),
        ])
        for index in range(len(DvfsTable().states)):
            point = DvfsTable().operating_point(index)
            assert sensitivity.multiplier(point) > 0.0


class TestVmDeterminism:
    PROGRAM = """
        li r1, 37
        li r2, 0
        li r5, 1
    loop:
        mul r3, r1, r1
        xor r2, r2, r3
        sub r1, r1, r5
        bne r1, r0, loop
        halt
    """

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_healthy_vm_output_independent_of_rng(self, seed):
        program = assemble(self.PROGRAM)
        result = Vm(Core("vmx/h", rng=np.random.default_rng(seed))).run(program)
        baseline = Vm(_core()).run(program)
        assert result.registers == baseline.registers

    @settings(max_examples=15, deadline=None)
    @given(bit=st.integers(min_value=0, max_value=63))
    def test_deterministic_defect_reproducible(self, bit):
        """Same defect + same rng seed ⇒ identical corrupted run —
        the property that makes confession testing meaningful."""
        def run_once():
            core = Core(
                "vmx/bad",
                defects=[StuckBitDefect("d", bit=bit, base_rate=0.05,
                                        unit=FunctionalUnit.MUL_DIV)],
                rng=np.random.default_rng(99),
            )
            return Vm(core).run(assemble(self.PROGRAM)).registers

        assert run_once() == run_once()


class TestDefectRateBounds:
    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=1.0),
        age=st.floats(min_value=0.0, max_value=5000.0),
    )
    def test_effective_rate_is_probability(self, rate, age):
        defect = StuckBitDefect("d", bit=1, base_rate=rate, ops=(Op.ADD,))
        from repro.silicon.environment import NOMINAL

        effective = defect.effective_rate(Op.ADD, NOMINAL, age)
        assert 0.0 <= effective <= 1.0


# -- untargeted-stream kernels vs. the per-op path ---------------------

KERNEL_ONSET_DAYS = 400.0
#: a healthy core, every §2 case study, and a rate-drawing stuck bit in
#: each unit the streams cross (no named case sits in the ALU, the named
#: multiplier defect never triggers on the hashes' constants, the named
#: AES defect is deterministic, and the named comparator and lock
#: defects hardly ever fire on a short sort or lock run)
STUCK_UNITS = {
    "stuck_alu": FunctionalUnit.ALU,
    "stuck_mul": FunctionalUnit.MUL_DIV,
    "stuck_crypto": FunctionalUnit.CRYPTO,
    "stuck_branch": FunctionalUnit.BRANCH,
    "stuck_atomics": FunctionalUnit.ATOMICS,
}
#: fail-noisy cores that raise often enough to leave a primitive
#: mid-stream (the named machine_checker, rate 1e-4, hardly ever does):
#: inside an AES block, and inside copy_bytes / decompress
MACHINE_CHECK_UNITS = {
    "mce_crypto": FunctionalUnit.CRYPTO,
    "mce_load_store": FunctionalUnit.LOAD_STORE,
}
KERNEL_CASES = (None, *NAMED_CASES, *STUCK_UNITS, *MACHINE_CHECK_UNITS)

word = st.integers(min_value=0, max_value=2**64 - 1)
aes_block = st.binary(min_size=16, max_size=16)
#: codec input: runs and noise over a small alphabet, so matches repeat,
#: overlap themselves and cross MAX_MATCH
codec_bytes = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, MAX_MATCH + 30)),
        max_size=5,
    ).map(lambda runs: b"".join(bytes([97 + b]) * n for b, n in runs)),
    st.sampled_from((2, 4, 16)).flatmap(
        lambda alphabet: st.lists(
            st.integers(0, alphabet - 1), max_size=120).map(bytes)),
).map(lambda data: data[:400])


def _kernel_core(case, age_days, seed, online=True):
    if case is None:
        defects = ()
    elif case in STUCK_UNITS:
        defects = [StuckBitDefect(
            f"propx:{case}", bit=7, base_rate=0.05, unit=STUCK_UNITS[case])]
    elif case in MACHINE_CHECK_UNITS:
        defects = [MachineCheckDefect(
            f"propx:{case}", base_rate=0.05, unit=MACHINE_CHECK_UNITS[case])]
    else:
        defects = named_case(case)
    for defect in defects:
        defect.aging = AgingProfile(onset_days=KERNEL_ONSET_DAYS)
    core = Core(
        f"propx/{case}", defects=defects, rng=np.random.default_rng(seed),
        age_days=age_days,
    )
    core.set_online(online)
    return core


def _per_op(run):
    """``run()`` with the memo switch off: the per-op reference path."""
    with golden_cache(False):
        return run()


def _observe(core, work):
    try:
        result = work(core)
    except (MachineCheckError, CoreOfflineError, ValueError, IndexError) as error:
        # a machine check, an offline core, a codec crashing on corrupted
        # arithmetic: observations to compare, counters at the raise too
        result = (type(error).__name__, str(error))
    return (
        result, core.ops_executed, core.corruptions_induced,
        core.machine_checks_raised, core.rng.bit_generator.state,
    )


def _aes_round_trip(key, block):
    def work(core):
        round_keys = expand_key(core, key)
        ciphertext = encrypt_block(core, block, round_keys)
        return round_keys, ciphertext, decrypt_block(core, ciphertext, round_keys)

    return work


class TestKernelsMatchThePerOpPath:
    """Switch on (kernels wherever the target sets allow) against switch
    off (one ``execute`` per op everywhere): same results, same ground
    truth counters, same rng state — on every kind of core, before and
    after its defect's onset."""

    @settings(max_examples=6, deadline=None)
    @given(
        data=st.binary(max_size=40), seeds=st.lists(word, max_size=5),
        key=aes_block, block=aes_block,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_every_primitive_on_every_core(self, data, seeds, key, block, seed):
        round_keys = expand_key(Core("propx/keys"), key)
        primitives = (
            lambda core: crc64(core, data),
            lambda core: fnv1a(core, data),
            lambda core: [mix64(core, x) for x in seeds],
            _aes_round_trip(key, block),
            # on their own: a crypto-unit machine check leaves the round
            # trip inside expand_key, these it leaves mid-block
            lambda core: encrypt_block(core, block, round_keys),
            lambda core: decrypt_block(core, block, round_keys),
        )
        for case in KERNEL_CASES:
            for age_days in (0.0, 2 * KERNEL_ONSET_DAYS):
                for work in primitives:
                    kernels = _observe(_kernel_core(case, age_days, seed), work)
                    per_op = _per_op(lambda: _observe(
                        _kernel_core(case, age_days, seed), work))
                    assert kernels == per_op, (case, age_days)

    @settings(max_examples=60, deadline=None)
    @given(
        data=codec_bytes, window=st.sampled_from((1, 7, 255)),
        chunk=st.sampled_from((1, 3, 64)),
        case=st.sampled_from(KERNEL_CASES),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(
        data=b"a" * (MAX_MATCH + 40) + b"b" + b"a" * 30, window=255, chunk=3,
        case=None, seed=0,
    )
    def test_codec_and_copy_on_every_core(self, data, window, chunk, case, seed):
        blob = compress(Core("propx/ref"), data, window)
        primitives = (
            lambda core: compress(core, data, window),
            lambda core: decompress(core, blob),
            lambda core: compression_workload(core, data),
            lambda core: copy_bytes(core, data, chunk),
        )
        for age_days in (0.0, 2 * KERNEL_ONSET_DAYS):
            for work in primitives:
                kernels = _observe(_kernel_core(case, age_days, seed), work)
                per_op = _per_op(lambda: _observe(
                    _kernel_core(case, age_days, seed), work))
                assert kernels == per_op, (case, age_days)

    def test_offline_core_raises_on_its_first_op_and_not_before(self):
        key = block = bytes(range(16))
        blob = compress(Core("propx/ref"), b"abcabcabcabc")
        empty_then_not = (
            (lambda core: crc64(core, b""), lambda core: crc64(core, b"x")),
            (lambda core: fnv1a(core, b""), lambda core: fnv1a(core, b"x")),
            (lambda core: compress(core, b""), lambda core: compress(core, b"x")),
            (lambda core: decompress(core, b""),
             lambda core: decompress(core, blob)),
            (lambda core: compression_workload(core, b""),
             lambda core: compression_workload(core, b"x")),
            (lambda core: copy_bytes(core, b""),
             lambda core: copy_bytes(core, b"x")),
            (lambda core: None, _aes_round_trip(key, block)),
        )
        for case in KERNEL_CASES:
            for no_ops, first_op in empty_then_not:
                for work, raises in ((no_ops, False), (first_op, True)):
                    kernels = _observe(
                        _kernel_core(case, 0.0, 1, online=False), work)
                    per_op = _per_op(lambda: _observe(
                        _kernel_core(case, 0.0, 1, online=False), work))
                    assert kernels == per_op, case
                    assert kernels[1] == 0
                    offline = str(CoreOfflineError(f"propx/{case}"))
                    assert (
                        kernels[0] == ("CoreOfflineError", offline)
                    ) == raises, (case, kernels[0])

    @settings(max_examples=10, deadline=None)
    @given(
        data=st.binary(max_size=40), key=aes_block, block=aes_block,
        case=st.sampled_from(KERNEL_CASES),
    )
    def test_op_counting_wrapper_sees_every_op(self, data, key, block, case):
        def counts(work):
            counting = OpCountingCore(_kernel_core(case, 0.0, 1))
            work(counting)
            return counting.counts, counting.inner.ops_executed

        def crc(core):
            return crc64(core, data)

        crc_counts, crc_ops = counts(crc)
        assert sum(crc_counts.values()) == crc_ops == 4 * len(data)
        assert (crc_counts, crc_ops) == _per_op(lambda: counts(crc))
        aes = _aes_round_trip(key, block)
        aes_counts, aes_ops = counts(aes)
        assert sum(aes_counts.values()) == aes_ops == 210 + 2 * 1488
        assert (aes_counts, aes_ops) == _per_op(lambda: counts(aes))

    @settings(max_examples=10, deadline=None)
    @given(
        data=st.binary(max_size=40),
        case=st.sampled_from(KERNEL_CASES),
        rate=st.sampled_from((0.0, 0.33, 1.0)),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_ithica_checker_sees_every_op(self, data, case, rate, seed):
        def checked():
            core = _kernel_core(case, 2 * KERNEL_ONSET_DAYS, seed)
            wrapper = IthicaCheckedCore(core, rate, seed=seed)
            return _observe(core, lambda _: crc64(wrapper, data)), wrapper.stats

        observed, stats = checked()
        assert stats.payload_ops == 4 * len(data)
        assert observed[1] == stats.payload_ops + stats.check_ops
        assert (observed, stats) == _per_op(checked)


# -- data-dependent streams and the ITHICA checker vs. the per-op path --

#: the comparators compare low 64 bits, so negatives and integers of
#: 2**64 and above are where a host-side compare would go wrong
masked_int = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-(2**70), max_value=2**70),
)
masked_ints = st.lists(masked_int, max_size=24)


def _btree(keys, probes):
    def work(core):
        index = BTreeIndex(core)
        for slot, key in enumerate(keys):
            index.insert(key, slot)
        return [index.get(key) for key in probes], list(index.items()), index.size

    return work


def _locked_counter(n_threads, iterations):
    def work(core):
        shared, hung = run_locked_counter(core, n_threads, iterations)
        return shared.counter, shared.lock, shared.mutual_exclusion_violations, hung

    return work


def _data_dependent(values, probes, n_threads, iterations):
    return (
        lambda core: merge_sort(core, values),
        lambda core: is_sorted_on(core, values),
        lambda core: is_sorted_on(core, sorted(values, key=lambda v: v % 2**64)),
        _btree(values, probes),
        lambda core: database_workload(core, values, probes),
        _locked_counter(n_threads, iterations),
    )


class TestHostPathMatchesThePerOpPath:
    """Sorting, the B-tree and the lock simulator on the host (the same
    body against a golden counter, then one credit) against one
    ``execute`` per op: same results, counters and rng state on every
    kind of core, online or offline, before and after onset."""

    @settings(max_examples=25, deadline=None)
    @given(
        values=masked_ints, probes=masked_ints,
        n_threads=st.integers(min_value=1, max_value=4),
        iterations=st.integers(min_value=1, max_value=6),
        case=st.sampled_from(KERNEL_CASES),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(
        values=[-1, 3, 2**64 + 1, 0], probes=[2**64 + 3, 3, -1, 1],
        n_threads=4, iterations=6, case="comparator_flip", seed=0,
    )
    def test_data_dependent_streams_on_every_core(
        self, values, probes, n_threads, iterations, case, seed,
    ):
        for age_days in (0.0, 2 * KERNEL_ONSET_DAYS):
            for online in (True, False):
                for work in _data_dependent(values, probes, n_threads, iterations):
                    host = _observe(
                        _kernel_core(case, age_days, seed, online), work)
                    per_op = _per_op(lambda: _observe(
                        _kernel_core(case, age_days, seed, online), work))
                    assert host == per_op, (case, age_days, online)

    def test_comparators_mask_to_64_bits_on_both_paths(self):
        values = [-1, 3, 2**64 + 1, 0]
        for run in (lambda f: f(), _per_op):
            core = Core("propx/h")
            assert run(lambda: merge_sort(core, values)) == [0, 2**64 + 1, 3, -1]
            assert run(lambda: is_sorted_on(core, [0, 2**64 + 1, 3, -1]))

    def test_offline_core_raises_on_the_first_op_and_not_before(self):
        no_ops = (
            lambda core: merge_sort(core, [7]),
            lambda core: is_sorted_on(core, [7]),
            lambda core: BTreeIndex(core).get(7),
        )
        first_op = (
            lambda core: merge_sort(core, [2, 1]),
            lambda core: is_sorted_on(core, [1, 2]),
            _btree([1, 2], []),
            lambda core: database_workload(core, [1], [1]),
            _locked_counter(1, 1),
        )
        for case in KERNEL_CASES:
            for works, raises in ((no_ops, False), (first_op, True)):
                for work in works:
                    host = _observe(_kernel_core(case, 0.0, 1, online=False), work)
                    per_op = _per_op(lambda: _observe(
                        _kernel_core(case, 0.0, 1, online=False), work))
                    assert host == per_op, case
                    assert host[1] == 0
                    offline = ("CoreOfflineError", str(CoreOfflineError(f"propx/{case}")))
                    assert (host[0] == offline) == raises, (case, host[0])

    def test_a_lock_that_never_releases_hangs_on_both_paths(self):
        def observe():
            core = Core(
                "propx/xchg",
                defects=[StuckBitDefect("d", bit=3, base_rate=1.0, ops=(Op.XCHG,))],
                rng=np.random.default_rng(5),
            )
            return _observe(core, _locked_counter(3, 4))

        hung = observe()
        assert hung[0][3] is True
        assert hung[1] == 60 * 3 * 4
        assert hung == _per_op(observe)

    @pytest.mark.usefixtures("kernels_on")
    def test_untargeted_streams_never_reach_execute(self, execute_calls):
        values = list(range(40, 0, -1))
        healthy = Core("propx/h")
        for work in _data_dependent(values, values[:5], 3, 4):
            work(healthy)
        assert execute_calls == []
        assert healthy.ops_executed > 0
        comparator = _kernel_core("comparator_flip", 0.0, 1)
        merge_sort(comparator, values)
        assert len(execute_calls) == comparator.ops_executed > 0


#: the ITHICA arm's cores: healthy, one defect in the load/store path,
#: one in the multiplier
ITHICA_CASES = (None, "string_bit_flipper", "multiplier_pattern")

#: long enough that its credit alone crosses a 1024-counter sampler block
LONG_STREAM = bytes(range(256)) + b"tail"


class TestIthicaCreditMatchesThePerOpPath:
    """Every primitive through one ``IthicaCheckedCore``, credited and
    per-op streams interleaved on one sampler: the checker's stats and
    sampler position, and the inner core's ground truth, equal the
    per-op path's."""

    @settings(max_examples=15, deadline=None)
    @given(
        data=codec_bytes, values=masked_ints, key=aes_block, block=aes_block,
        case=st.sampled_from(ITHICA_CASES),
        rate=st.sampled_from((0.0, 0.33, 1.0)),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_every_stream_through_the_checker(
        self, data, values, key, block, case, rate, seed,
    ):
        works = (
            lambda core: crc64(core, data),
            lambda core: fnv1a(core, data),
            lambda core: compress(core, data),
            lambda core: copy_bytes(core, data, 3),
            _aes_round_trip(key, block),
            lambda core: crc64(core, LONG_STREAM),
            *_data_dependent(values, values[:4], 2, 3),
        )

        def checked():
            core = _kernel_core(case, 2 * KERNEL_ONSET_DAYS, seed)
            wrapper = IthicaCheckedCore(core, rate, seed=seed)
            observed = [
                _observe(core, lambda _: work(wrapper)) for work in works
            ]
            return observed, wrapper.stats, wrapper.sampler._counter

        observed, stats, counter = checked()
        assert (observed, stats, counter) == _per_op(checked), (case, rate)
        assert stats.payload_ops + stats.check_ops == observed[-1][1]
