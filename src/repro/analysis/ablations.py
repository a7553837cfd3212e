"""Ablations and §8/§9 extensions: rows A1–A10 of the experiment registry.

Each runner varies one design choice DESIGN.md §5 names (or builds one
extension the paper's §8/§9 only sketch) and returns the same shape as
the E-row runners: measured quantities plus a ``rendered`` table.  The
rows at the end of the file carry the smoke scale and the claims; they
are merged into ``repro.analysis.experiments.EXPERIMENTS``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.economics import ScreeningPolicy
from repro.analysis.experiments import Claim, Experiment, _healthy, _pool
from repro.analysis.figures import render_table
from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind, Reporter
from repro.core.policy import Action, PolicyConfig, QuarantinePolicy
from repro.detection.characterize import characterize, synthesize_regression_test
from repro.detection.corpus import TestCorpus
from repro.detection.signals import SignalAnalyzer
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.mitigation.bft import QuorumReplicatedService
from repro.mitigation.checkpoint import CheckpointRuntime
from repro.mitigation.redundancy import RedundancyExhaustedError, TmrExecutor
from repro.mitigation.resilient.sorting import verify_sorted
from repro.mitigation.selective import (
    SelectiveReplicator,
    Stage,
    full_tmr_baseline,
    unprotected_baseline,
)
from repro.silicon.accelerator import (
    MatrixAccelerator,
    PeDefect,
    abft_tile_check,
    column_error_signature,
    screen_accelerator,
)
from repro.silicon.catalog import sample_defect
from repro.silicon.core import Core
from repro.silicon.defects import OperandPatternDefect, StuckBitDefect
from repro.silicon.environment import NOMINAL
from repro.silicon.injector import InjectionCampaign, InjectionOutcome
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.base import WorkloadResult, digest_ints
from repro.workloads.generator import blended_op_mix, spec_by_name
from repro.workloads.sorting import is_sorted_on, merge_sort


# ---------------------------------------------------------------------
# A1 — quarantine-policy thresholds
# ---------------------------------------------------------------------

def _synthetic_history(seed=0, n_cores=400, n_bad=6, horizon=90.0):
    """Event stream: bad cores signal often, background signals rarely."""
    rng = np.random.default_rng(seed)
    bad = {f"m{idx:03d}/c00" for idx in range(n_bad)}
    events = []  # (time, core, kind)
    for core in bad:
        for _ in range(int(rng.poisson(8))):
            events.append((float(rng.uniform(0, horizon)), core,
                           EventKind.SELF_CHECK_FAILURE))
    for _ in range(int(rng.poisson(120))):
        core = f"m{rng.integers(n_cores):03d}/c{rng.integers(4):02d}"
        events.append((float(rng.uniform(0, horizon)), core,
                       EventKind.CRASH))
    events.sort()
    return events, bad


def _evaluate_threshold(threshold: float, events, bad):
    analyzer = SignalAnalyzer(tracker=SuspicionTracker())
    policy = QuarantinePolicy(
        PolicyConfig(
            monitor_threshold=min(1.0, threshold),
            retest_threshold=min(2.0, threshold),
            quarantine_threshold=threshold,
            require_confession_below=threshold,
        ),
        fleet_cores=2000,
    )
    quarantine_time = {}
    for t, core, kind in events:
        analyzer.ingest(CeeEvent(
            time_days=t, machine_id=core.split("/")[0], core_id=core,
            kind=kind, reporter=Reporter.AUTOMATED,
        ))
        score = analyzer.tracker.score(core, t)
        decision = policy.decide(core, score)
        if decision.action in (Action.QUARANTINE_CORE,
                               Action.QUARANTINE_MACHINE):
            quarantine_time.setdefault(core, t)
    flagged = set(quarantine_time)
    tp = len(flagged & bad)
    fp = len(flagged - bad)
    precision = tp / len(flagged) if flagged else 1.0
    recall = tp / len(bad)
    latencies = [quarantine_time[c] for c in flagged & bad]
    latency = sum(latencies) / len(latencies) if latencies else float("nan")
    return precision, recall, latency, fp


def run_threshold_ablation(seed=0, n_cores=400) -> dict:
    """A1: the §6 tradeoff dial.  A lax policy quarantines fast (low
    latency, more false positives if signals are noisy); a strict
    confession-gated policy quarantines late but precisely.  Sweeps the
    quarantine threshold over the same event history."""
    events, bad = _synthetic_history(seed, n_cores=n_cores)
    rows = []
    results = {}
    for threshold in (2.0, 4.0, 6.0, 10.0, 16.0):
        precision, recall, latency, fp = _evaluate_threshold(
            threshold, events, bad
        )
        results[threshold] = (precision, recall, latency, fp)
        rows.append([
            f"{threshold:.0f}", f"{precision:.2f}", f"{recall:.2f}",
            f"{latency:.0f}d", fp,
        ])
    return {
        "by_threshold": results,
        "rendered": render_table(
            ["quarantine threshold", "precision", "recall",
             "mean days to quarantine", "false positives"],
            rows,
            title="A1: policy-threshold ablation (§6 tradeoff)",
        ),
    }


# ---------------------------------------------------------------------
# A2 — online screening duty cycle
# ---------------------------------------------------------------------

def run_duty_cycle_ablation(seed=0, n_defects=150) -> dict:
    """A2: §4 — detection quality "depends on ... how many cycles
    devoted to testing".  Sweeps the spare-cycle budget; measures
    confession probability per screen against a population of sampled
    defects, and the compute bill."""
    rng = np.random.default_rng(seed)
    mix = blended_op_mix()
    rates = []
    for index in range(n_defects):
        defect = sample_defect(rng, f"a2/d{index}")
        rate = defect.mean_rate(mix, NOMINAL, age_days=1000.0)
        if rate > 0:
            rates.append(rate)
    rows = []
    results = {}
    costs = {}
    for duty_cycle in (0.001, 0.005, 0.02, 0.08):
        corpus_ops = duty_cycle * 5e6
        policy = ScreeningPolicy(period_days=7.0, corpus_ops=corpus_ops)
        caught_weekly = sum(
            1 for r in rates if policy.detection_probability(r) > 0.5
        )
        results[duty_cycle] = caught_weekly / len(rates)
        costs[duty_cycle] = policy.compute_cost_per_coreday()
        rows.append([
            f"{duty_cycle:.1%}",
            f"{corpus_ops:.0e}",
            f"{caught_weekly / len(rates):.2f}",
            f"{costs[duty_cycle]:.1e}",
        ])
    return {
        "caught_by_duty_cycle": results,
        "compute_cost_by_duty_cycle": costs,
        "rendered": render_table(
            ["duty cycle", "ops/screen", "fraction caught within ~1 screen",
             "compute cost fraction"],
            rows,
            title="A2: duty-cycle ablation (cycles devoted to testing)",
        ),
    }


# ---------------------------------------------------------------------
# A3 — the TMR voter itself runs on a core
# ---------------------------------------------------------------------

def run_voter_ablation(seed=0, n_units=60) -> dict:
    """A3: §7 — "this relies on the voting mechanism itself being
    reliable."  TMR with a host-side (reliable) voter against TMR whose
    digest comparisons execute on a defective core."""
    pool = _pool(3, 10)
    # A comparator defect that sometimes reports unequal digests equal.
    bad_voter = Core(
        "a3/voter",
        defects=[OperandPatternDefect(
            "voter", mask=0x3, value=0x1, error=1, base_rate=0.9,
            ops=(Op.BEQ,),
        )],
        rng=np.random.default_rng(seed),
    )
    spec = spec_by_name("hashing")
    outcomes = {}
    rows = []
    for label, voter in (("host voter", None), ("defective voter", bad_voter)):
        anomalies = 0
        failures = 0
        for unit in range(n_units):
            executor = TmrExecutor(pool, voter_core=voter)
            try:
                outcome = executor.run(spec.build(seed + unit))
            except RedundancyExhaustedError:
                failures += 1
                continue
            # With three healthy workers any detected "corruption" is a
            # voter artifact.
            anomalies += outcome.detected_corruption
        outcomes[label] = (anomalies, failures)
        rows.append([label, anomalies, failures])
    return {
        "outcomes": outcomes,
        "rendered": render_table(
            ["voter", "spurious disagreements", "vote failures"],
            rows,
            title="A3: voter-reliability ablation (healthy workers)",
        ),
    }


# ---------------------------------------------------------------------
# A4 — checkpoint granule size
# ---------------------------------------------------------------------

def _granule_pool(seed=0):
    pool = _pool(4, 30)
    pool[0] = Core(
        "a4/bad",
        defects=[StuckBitDefect("d", bit=61, base_rate=4e-2,
                                unit=FunctionalUnit.ALU)],
        rng=np.random.default_rng(seed),
    )
    return pool


def _granule_step(core, state, item):
    return state + [core.execute(Op.ADD, state[-1] if state else 0, item)]


def _granule_check(state):
    return all(b >= a for a, b in zip(state, state[1:]))


def run_granule_ablation(seed=0, n_items=192) -> dict:
    """A4: §7 points at the deterministic-replay literature for choosing
    "the largest possible computation granules"; the tradeoff is
    checkpoint overhead (favoring big granules) against retry waste
    (favoring small ones).  Sweeps granule size against a fixed
    defective pool."""
    items = list(range(1, n_items + 1))
    rows = []
    overheads = {}
    completed = {}
    retried = {}
    wasted = {}
    checkpoint_cost = {}
    for granule in (4, 16, 64, n_items):
        runtime = CheckpointRuntime(
            _granule_pool(seed), step=_granule_step, check=_granule_check,
            granule=granule, checkpoint_cost_items=2.0,
        )
        completed[granule] = len(runtime.run([], items))
        stats = runtime.stats
        overheads[granule] = stats.overhead_factor
        retried[granule] = stats.granules_retried
        wasted[granule] = stats.items_wasted
        checkpoint_cost[granule] = stats.checkpoint_cost_items
        rows.append([
            granule,
            stats.granules_retried,
            stats.items_wasted,
            f"{stats.checkpoint_cost_items:.0f}",
            f"{stats.overhead_factor:.3f}x",
        ])
    return {
        "n_items": n_items,
        "completed": completed,
        "overheads": overheads,
        "retried": retried,
        "items_wasted": wasted,
        "checkpoint_cost": checkpoint_cost,
        "rendered": render_table(
            ["granule", "retries", "items wasted", "checkpoint cost",
             "total overhead"],
            rows,
            title="A4: checkpoint-granule ablation (1 of 4 cores mercurial)",
        ),
    }


# ---------------------------------------------------------------------
# A5 — SKU-mixture heterogeneity
# ---------------------------------------------------------------------

def run_sku_ablation(n_machines=6000, seed=5) -> dict:
    """A5: §2 — "the rate is not uniform across CPU products."  Fleets
    of only-old vs only-new SKUs vs the default mixture; incidence
    should track the §5 scaling argument (newer, denser nodes fail
    more)."""
    portfolios = {
        "oldest SKU only": (DEFAULT_PRODUCTS[0],),
        "default mixture": DEFAULT_PRODUCTS,
        "newest SKU only": (DEFAULT_PRODUCTS[-1],),
    }
    rows = []
    rates = {}
    counts = {}
    for label, products in portfolios.items():
        n_mercurial = FleetBuilder(
            products=products, seed=seed
        ).build_columns(n_machines).n_mercurial
        rate = 1000.0 * n_mercurial / n_machines
        rates[label] = rate
        counts[label] = n_mercurial
        rows.append([label, n_mercurial, f"{rate:.2f}"])
    return {
        "per_kmachine": rates,
        "n_mercurial": counts,
        "rendered": render_table(
            ["portfolio", "mercurial cores", "per 1000 machines"],
            rows,
            title=f"A5: SKU-mixture ablation ({n_machines} machines)",
        ),
    }


# ---------------------------------------------------------------------
# A6 — fault-injection susceptibility of sorting
# ---------------------------------------------------------------------

def run_susceptibility(n_sites=120, seed=3) -> dict:
    """A6: §9 — "that prior work evaluated algorithms using fault
    injection, a technique that does not require access to a large
    fleet".  The Guan et al. [11] methodology on our own sorts:
    single-fault injection sweeps over an unchecked sort, the naive
    self-checked sort, and the resilient sort with cross-core
    verification."""
    values = [
        int(x)
        for x in np.random.default_rng(seed + 4).integers(0, 2**40, 120)
    ]

    def unchecked(core) -> WorkloadResult:
        output = merge_sort(core, values)
        return WorkloadResult(name="sort", output_digest=digest_ints(output))

    def self_checked(core) -> WorkloadResult:
        output = merge_sort(core, values)
        return WorkloadResult(
            name="sort+check",
            output_digest=digest_ints(output),
            app_detected=not is_sorted_on(core, output),
        )

    def resilient(core) -> WorkloadResult:
        output = merge_sort(core, values)
        verifier = _healthy("a6/verifier", 1)
        return WorkloadResult(
            name="sort+resilient",
            output_digest=digest_ints(output),
            app_detected=not verify_sorted(verifier, values, output),
        )

    rows = []
    sdc = {}
    shares = {}
    for label, work in (("unchecked", unchecked),
                        ("naive self-check", self_checked),
                        ("resilient verify", resilient)):
        campaign = InjectionCampaign(work)
        report = campaign.run(n_sites=n_sites, rng=np.random.default_rng(seed))
        sdc[label] = report.sdc_fraction
        shares[label] = {
            outcome: report.fraction(outcome)
            for outcome in (InjectionOutcome.BENIGN,
                            InjectionOutcome.DETECTED,
                            InjectionOutcome.CRASHED)
        }
        rows.append([
            label,
            *(f"{share:.1%}" for share in shares[label].values()),
            f"{report.sdc_fraction:.1%}",
        ])
    return {
        "sdc": sdc,
        "shares": shares,
        "rendered": render_table(
            ["sort variant", "benign", "detected", "crashed", "SILENT (SDC)"],
            rows,
            title=f"A6: single-fault injection, {n_sites} sites per variant",
        ),
    }


# ---------------------------------------------------------------------
# A7 — selective replication of critical computations
# ---------------------------------------------------------------------

def _stage_work(seed, length=80):
    def work(core):
        total = seed
        for value in range(length):
            total = core.execute(Op.ADD, total, value ^ seed)
            total = core.execute(Op.XOR, total, value * 3 + 1)
        return WorkloadResult(name=f"s{seed}", output_digest=digest_ints([total]))
    return work


def _stages(n=24, critical_every=6):
    return [
        Stage(
            name=f"s{i}",
            work=_stage_work(i + 1),
            critical=None,
            blast_radius=50_000 if i % critical_every == 0 else 1,
        )
        for i in range(n)
    ]


def _selective_pool(seed=0):
    pool = _pool(5, 40)
    pool[0] = Core(
        "a7/bad",
        defects=[StuckBitDefect("d", bit=37, base_rate=2e-3,
                                unit=FunctionalUnit.ALU)],
        rng=np.random.default_rng(seed),
    )
    return pool


def run_selective_ablation(seed=0, n_stages=24) -> dict:
    """A7: §9 — "perhaps compilers could ... automatically replicate
    just these computations."  Cost/protection frontier: unprotected vs
    selective (critical stages only) vs full TMR."""
    stages = _stages(n=n_stages)
    reference = [stage.work(_healthy("a7/ref", 77)) for stage in stages]

    def wrong_count(results):
        return sum(
            r.output_digest != e.output_digest
            for r, e in zip(results, reference)
        )

    unprot = unprotected_baseline(_selective_pool(seed)[0], stages)
    replicator = SelectiveReplicator(
        _selective_pool(seed), criticality_threshold=2.0
    )
    selective = replicator.run_pipeline(stages)
    critical_indices = [i for i, s in enumerate(stages)
                        if s.blast_radius > 1]
    critical_wrong = sum(
        selective[i].output_digest != reference[i].output_digest
        for i in critical_indices
    )
    full, full_executions = full_tmr_baseline(_selective_pool(seed), stages)

    rows = [
        ["unprotected", wrong_count(unprot), "-", "1.00x"],
        ["selective (critical only)", wrong_count(selective),
         critical_wrong, f"{replicator.stats.cost_factor:.2f}x"],
        ["full TMR", wrong_count(full), 0,
         f"{full_executions / len(stages):.2f}x"],
    ]
    return {
        "unprotected_wrong": wrong_count(unprot),
        "selective_wrong": wrong_count(selective),
        "selective_critical_wrong": critical_wrong,
        "selective_cost": replicator.stats.cost_factor,
        "full_cost": full_executions / len(stages),
        "full_wrong": wrong_count(full),
        "rendered": render_table(
            ["strategy", "wrong stages", "wrong CRITICAL stages", "cost"],
            rows,
            title=(
                f"A7: selective replication "
                f"({len(critical_indices)} of {n_stages} stages critical)"
            ),
        ),
    }


# ---------------------------------------------------------------------
# A8 — quorum replication against a mercurial replica
# ---------------------------------------------------------------------

def run_bft(seed=0, n_commands=40) -> dict:
    """A8: §8 — "BFT might be applicable to CEEs in some cases".  An
    n=3f+1 quorum service commits only certificate-backed results, so a
    mercurial replica can neither corrupt committed state nor hide: its
    dissent record identifies it."""
    def build(index, defective):
        defects = ()
        if defective:
            defects = [StuckBitDefect("d", bit=23, base_rate=0.3,
                                      unit=FunctionalUnit.ALU)]
        return Core(f"a8/r{index}", defects=defects,
                    rng=np.random.default_rng(seed + index))

    service = QuorumReplicatedService(
        [build(0, False), build(1, True), build(2, False), build(3, False)],
        f=1,
    )
    reference = _healthy("a8/ref", 99)
    expected_state: dict[str, int] = {}

    def command(core, state, step):
        key = f"k{step % 5}"
        state[key] = core.execute(Op.ADD, state.get(key, 0), step + 1)
        state[key] = core.execute(Op.XOR, state[key], 0x5A5A)
        return state

    wrong_commits = 0
    for step in range(n_commands):
        committed = service.submit(
            lambda core, state, step=step: command(core, state, step)
        )
        expected_state = command(reference, expected_state, step)
        wrong_commits += committed != expected_state

    suspects = service.suspect_replicas()
    rows = [
        ["commands committed", service.stats.commands],
        ["wrong committed states", wrong_commits],
        ["execution cost factor", f"{service.stats.cost_factor:.1f}x"],
        ["dissents recorded", service.stats.dissents],
        ["suspect replicas (recidivist dissenters)", suspects],
    ]
    return {
        "committed": service.stats.commands,
        "wrong_commits": wrong_commits,
        "cost": service.stats.cost_factor,
        "suspects": suspects,
        "dissents": service.stats.dissents,
        "rendered": render_table(
            ["quantity", "value"], rows,
            title="A8: BFT quorum with 1 mercurial of 4 replicas",
        ),
    }


# ---------------------------------------------------------------------
# A9 — CEEs in accelerator silicon
# ---------------------------------------------------------------------

#: tiles A9 multiplies.  No smoke scale: the ABFT silent-wrong claim
#: is sensitive to the defect rng stream, and 12 tiles is already small.
ACCELERATOR_TILES = 12


def run_accelerator_study(seed=0) -> dict:
    """A9: §9 — "one might expect to see CEEs in these devices as well."
    A systolic matmul unit with one defective processing element: the
    corruption signature is *structured* (one output-column residue
    class), tile-level golden screening replaces the per-op corpus, and
    the ABFT checksum row rides the same pass for near-free detection.
    """
    rng = np.random.default_rng(seed)
    healthy = MatrixAccelerator(
        "a9/h", size=8, rng=np.random.default_rng(seed + 1)
    )
    defective = MatrixAccelerator(
        "a9/bad", size=8,
        defects=[PeDefect(row=2, col=5, bit=17, rate=0.05)],
        rng=np.random.default_rng(seed + 2),
    )

    def tile():
        a = [[int(x) for x in row] for row in rng.integers(0, 2**32, (8, 8))]
        b = [[int(x) for x in row] for row in rng.integers(0, 2**32, (8, 8))]
        return a, b

    # 1. structured signature
    signature: dict[int, int] = {}
    corrupt_tiles = 0
    for _ in range(ACCELERATOR_TILES):
        a, b = tile()
        observed = defective.matmul(a, b)
        expected = defective.golden_matmul(a, b)
        tile_sig = column_error_signature(observed, expected, 8)
        corrupt_tiles += bool(tile_sig)
        for key, count in tile_sig.items():
            signature[key] = signature.get(key, 0) + count

    # 2. ABFT catches corrupt tiles in-line
    abft_flagged = 0
    abft_silent_wrong = 0
    for _ in range(ACCELERATOR_TILES):
        a, b = tile()
        body, consistent = abft_tile_check(defective, a, b)
        expected = defective.golden_matmul(a, b)
        if not consistent:
            abft_flagged += 1
        elif body != expected:
            abft_silent_wrong += 1

    healthy_screen = screen_accelerator(healthy, n_tiles=6, seed=3)
    defective_screen = screen_accelerator(defective, n_tiles=6, seed=3)

    rows = [
        ["corrupt tiles (of %d)" % ACCELERATOR_TILES, corrupt_tiles],
        ["error column classes", sorted(signature)],
        ["ABFT tiles flagged", abft_flagged],
        ["ABFT silent wrong", abft_silent_wrong],
        ["tile screening: healthy passes", healthy_screen],
        ["tile screening: defective passes", defective_screen],
    ]
    return {
        "signature_classes": set(signature),
        "corrupt_tiles": corrupt_tiles,
        "abft_flagged": abft_flagged,
        "abft_silent_wrong": abft_silent_wrong,
        "healthy_screen": healthy_screen,
        "defective_screen": defective_screen,
        "rendered": render_table(
            ["quantity", "value"], rows,
            title="A9: CEEs in a systolic matmul accelerator",
        ),
    }


# ---------------------------------------------------------------------
# A10 — from zero-day to regression test, automatically
# ---------------------------------------------------------------------

def run_characterizer(seed=0, probes_per_op=800) -> dict:
    """A10: the lifecycle §2/§6/§9 narrate.  A pattern-gated defect
    slips past the generic corpus ("zero-day"), black-box
    characterization recovers the operand gate, and the synthesized
    regression test joins the corpus and catches the core
    deterministically."""
    zero_day = Core(
        "a10/zero-day",
        defects=[OperandPatternDefect(
            "zd", mask=0x1818, value=0x0810, error=1 << 22,
            base_rate=1.0, ops=(Op.MUL,),
        )],
        rng=np.random.default_rng(seed),
    )
    corpus = TestCorpus.standard(seeds=(1,))
    generic_catches = corpus.screen(zero_day, repetitions=2).confessed

    profile = characterize(zero_day, seed=seed, probes_per_op=probes_per_op)
    test = synthesize_regression_test(profile, seed=seed + 1)
    targeted_catches = test is not None and not test.run(zero_day)
    healthy_passes = test is not None and test.run(_healthy("a10/h", 1))
    if test is not None:
        corpus.add_test(test)
    corpus_catches_now = corpus.screen(zero_day).confessed

    rows = [
        ["generic corpus catches zero-day", generic_catches],
        ["recovered gate mask", hex(profile.trigger_mask)
         if profile.trigger_mask is not None else "-"],
        ["recovered gate value", hex(profile.trigger_value)
         if profile.trigger_value is not None else "-"],
        ["synthesized test catches core", targeted_catches],
        ["synthesized test passes healthy", healthy_passes],
        ["expanded corpus catches core", corpus_catches_now],
    ]
    return {
        "generic_catches": generic_catches,
        "mask": profile.trigger_mask,
        "value": profile.trigger_value,
        "targeted_catches": targeted_catches,
        "healthy_passes": healthy_passes,
        "corpus_catches_now": corpus_catches_now,
        "rendered": render_table(
            ["step", "result"], rows,
            title="A10: zero-day -> characterize -> regression test",
        ),
    }


def _sdc_ordered(r: dict) -> bool:
    sdc = r["sdc"]
    return (sdc["resilient verify"] <= sdc["naive self-check"]
            <= sdc["unchecked"] + 1e-9)


def _coverage_by_duty(r: dict) -> list[float]:
    return [r["caught_by_duty_cycle"][d] for d in sorted(r["caught_by_duty_cycle"])]


#: rows A1–A10 of ``repro.analysis.experiments.EXPERIMENTS``
ABLATIONS: dict[str, Experiment] = {
    "A1": Experiment(
        "Ablation: quarantine-policy thresholds",
        "§6 the detection tradeoff: false positives vs time to quarantine",
        run_threshold_ablation,
        dict(n_cores=150),
        (
            # by_threshold[t] = (precision, recall, latency, false positives)
            Claim("strict_policy_at_least_as_precise", "§6 false accusations",
                  lambda r: r["by_threshold"][16.0][0]
                  >= r["by_threshold"][2.0][0]),
            Claim("lax_policy_recalls_at_least_as_much", "§6 false negatives",
                  lambda r: r["by_threshold"][2.0][1]
                  >= r["by_threshold"][16.0][1]),
        ),
    ),
    "A2": Experiment(
        "Ablation: online screening duty cycle",
        "§4 detection depends on \"how many cycles devoted to testing\"",
        run_duty_cycle_ablation,
        dict(n_defects=50),
        (
            Claim("more_cycles_never_less_coverage", "§4 cycles vs coverage",
                  lambda r: _coverage_by_duty(r)
                  == sorted(_coverage_by_duty(r))),
            Claim("largest_budget_beats_smallest", "§4 cycles vs coverage",
                  lambda r: _coverage_by_duty(r)[-1]
                  > _coverage_by_duty(r)[0]),
        ),
    ),
    "A3": Experiment(
        "Ablation: TMR voter on a defective core",
        "§7 \"this relies on the voting mechanism itself being reliable\"",
        run_voter_ablation,
        dict(n_units=20),
        (
            # outcomes[voter] = (spurious disagreements, vote failures)
            Claim("host_voter_is_clean", "§7 reliable voter",
                  lambda r: r["outcomes"]["host voter"] == (0, 0)),
            Claim("broken_voting_is_visible", "§7 unreliable voter",
                  lambda r: sum(r["outcomes"]["defective voter"]) > 0),
        ),
    ),
    "A4": Experiment(
        "Ablation: checkpoint granule size",
        "§7 \"the largest possible computation granules\": checkpoint "
        "cost vs retry waste",
        run_granule_ablation,
        dict(n_items=96),
        (
            Claim("every_granule_size_completes_the_work",
                  "§7 checkpoint and retry",
                  lambda r: set(r["completed"].values()) == {r["n_items"]}),
            # the best granule is interior or the curve is monotone —
            # either way overheads differ measurably across the sweep
            Claim("granule_size_changes_the_overhead", "§7 granule tradeoff",
                  lambda r: max(r["overheads"].values())
                  > min(r["overheads"].values())),
        ),
    ),
    "A5": Experiment(
        "Ablation: SKU-mixture heterogeneity",
        "§2 \"the rate is not uniform across CPU products\"; §5 scaling",
        run_sku_ablation,
        dict(n_machines=2000),
        (
            Claim("newest_sku_fails_more_than_oldest", "§5 denser nodes",
                  lambda r: r["per_kmachine"]["newest SKU only"]
                  > r["per_kmachine"]["oldest SKU only"]),
            Claim("mixture_lies_between", "§2 per-product rates",
                  lambda r: r["per_kmachine"]["oldest SKU only"]
                  <= r["per_kmachine"]["default mixture"]
                  <= r["per_kmachine"]["newest SKU only"]),
        ),
    ),
    "A6": Experiment(
        "Extension: fault-injection susceptibility of sorting",
        "§9 evaluating algorithms by fault injection ([11] methodology)",
        run_susceptibility,
        dict(n_sites=40),
        (
            Claim("unchecked_sort_has_silent_corruption", "§9 / [11]",
                  lambda r: r["sdc"]["unchecked"] > 0),
            Claim("resilient_verify_has_none", "§7 resilient sorting",
                  lambda r: r["sdc"]["resilient verify"] == 0.0),
            Claim("each_check_only_lowers_sdc", "§9 / [11]", _sdc_ordered),
        ),
    ),
    "A7": Experiment(
        "Extension: selective replication of critical stages",
        "§9 \"automatically replicate just these computations\"",
        run_selective_ablation,
        dict(n_stages=12),
        (
            Claim("no_critical_stage_goes_wrong", "§9 selective replication",
                  lambda r: r["selective_critical_wrong"] == 0),
            Claim("full_tmr_gets_everything_right", "§7 TMR",
                  lambda r: r["full_wrong"] == 0),
            Claim("selective_costs_between_none_and_full", "§9 cost",
                  lambda r: 1.0 < r["selective_cost"] < r["full_cost"]),
        ),
    ),
    "A8": Experiment(
        "Extension: BFT quorum with a mercurial replica",
        "§8 \"BFT might be applicable to CEEs in some cases\"",
        run_bft,
        dict(n_commands=16),
        (
            Claim("no_wrong_state_commits", "§8 safety",
                  lambda r: r["wrong_commits"] == 0),
            Claim("costs_n_equals_3f_plus_1", "§8 the price of a quorum",
                  lambda r: r["cost"] == 4.0),
            Claim("dissent_record_names_the_replica", "§6 recidivism",
                  lambda r: r["suspects"] == [1]),
        ),
    ),
    "A9": Experiment(
        "Extension: CEEs in accelerator silicon",
        "§9 \"one might expect to see CEEs in these devices as well\"",
        run_accelerator_study,
        {},
        (
            Claim("error_signature_is_one_column_class",
                  "§9 structured, not random",
                  lambda r: r["signature_classes"] == {5}),
            Claim("defective_pe_corrupts_tiles", "§9 accelerator CEEs",
                  lambda r: r["corrupt_tiles"] > 0),
            Claim("in_pass_abft_flags_and_never_misses", "§7 ABFT",
                  lambda r: r["abft_flagged"] > 0
                  and r["abft_silent_wrong"] == 0),
            Claim("tile_screening_separates_the_devices", "§6 screening",
                  lambda r: r["healthy_screen"] and not r["defective_screen"]),
        ),
    ),
    "A10": Experiment(
        "Extension: zero-day → characterization → regression test",
        "§2 \"we lack a systematic method of developing these tests\"; "
        "§6 corpus expansion",
        run_characterizer,
        dict(probes_per_op=500),
        (
            Claim("generic_corpus_misses_the_zero_day", "§6 test coverage gap",
                  lambda r: not r["generic_catches"]),
            Claim("operand_gate_recovered_exactly", "§9 characterization",
                  lambda r: (r["mask"], r["value"]) == (0x1818, 0x0810)),
            Claim("synthesized_test_is_sound_and_complete",
                  "§2 developing tests",
                  lambda r: r["targeted_catches"] and r["healthy_passes"]),
            Claim("expanded_corpus_catches_the_core", "§6 corpus expansion",
                  lambda r: r["corpus_catches_now"]),
        ),
    ),
}
