"""The experiment registry: one row per DESIGN.md experiment ID.

Each runner reproduces one figure or claim from the paper and returns a
dict of measured quantities plus a ``rendered`` text block (the "same
rows/series the paper reports").  ``EXPERIMENTS`` (end of file) pairs
every runner with the paper sentence it reproduces, its smoke-scale
kwargs and its named :class:`Claim` predicates — the reproduction
contract (who wins, by what factor, which direction a series moves)
that ``repro run`` and the tier-1 suite both gate on.

Scale: a runner's defaults *are* the full scale EXPERIMENTS.md quotes;
the row's ``ci`` kwargs are the only other scale.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import math
from typing import Any, Callable

import numpy as np

from repro.analysis.economics import ScreeningPolicy, policy_frontier
from repro.analysis.figures import render_fig1, render_table
from repro.analysis.stats import (
    orders_of_magnitude_spread,
    poisson_rate_ci,
    trend_slope,
)
from repro.campaign import Campaign, CampaignScorecard
from repro.core.events import EventKind, Reporter
from repro.core.metrics import (
    confusion,
    incidence_per_kmachine,
    onset_stats,
    publish_confusion,
)
from repro.core.report import Complaint, CoreComplaintService
from repro.core.taxonomy import Symptom
from repro.core.triage import HumanTriageModel, TriageOutcome
from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import (
    DistilledBattery,
    RideAlongCampaign,
    RideAlongConfig,
    RideAlongScreener,
    distill,
    full_battery,
)
from repro.detection.offline import OfflineScreener, OfflineScreenerConfig
from repro.detection.online import OnlineScreener
from repro.detection.quarantine import CoreQuarantine, MachineQuarantine
from repro.engine import Trial, run_tasks, run_trials
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.scheduler import FleetScheduler, Task
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from repro.obs.forensics import latency_percentiles
from repro.mitigation.checkpoint import CheckpointRuntime
from repro.mitigation.instrcheck import (
    ARMS as INSTRCHECK_ARMS,
    InstrCheckCampaign,
    InstrCheckConfig,
    InstrCheckScorecard,
    build_instrcheck_fleet,
)
from repro.serving import (
    CampaignConfig,
    ChaosSchedule,
    HardeningConfig,
    ScaleConfig,
    ScaleHardening,
    ServeScaleCampaign,
    ServingCampaign,
    build_scale_fleet,
    build_serving_fleet,
)
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    build_storage_fleet,
)
from repro.mitigation.redundancy import (
    DmrExecutor,
    RedundancyExhaustedError,
    TmrExecutor,
)
from repro.mitigation.resilient.matfact import (
    AbftError,
    abft_matmul,
    checksummed_lu,
    matmul,
)
from repro.mitigation.resilient.sorting import resilient_sort
from repro.mitigation.selfcheck import CheckedCipher, SelfCheckError
from repro.silicon.aging import AgingProfile, WeibullOnset
from repro.silicon.catalog import named_case, sample_core_defects, sample_defect
from repro.silicon.core import Core
from repro.silicon.defects import SharedLogicDefect, StuckBitDefect
from repro.silicon.environment import DvfsTable, NOMINAL
from repro.silicon.errors import MachineCheckError
from repro.silicon.sensitivity import (
    FrequencySensitivity,
    VoltageMarginSensitivity,
)
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.base import OpCountingCore, run_with_oracle
from repro.workloads.copying import copy_words
from repro.workloads.crypto import decrypt_ecb, encrypt_ecb
from repro.workloads.database import Replica, probe_replica
from repro.workloads.filesystem import FsError, MiniFs
from repro.workloads.generator import STANDARD_MIX, blended_op_mix
from repro.workloads.sorting import merge_sort
from repro.workloads.vectorops import xor_fold


@dataclasses.dataclass(frozen=True)
class Claim:
    """One named paper claim, checked on a runner's result dict.

    Attributes:
        name: unique within its row; what ``repro run`` prints.
        paper: the quote or section the claim reproduces.
        check: the predicate, tolerance written out in its body.
    """

    name: str
    paper: str
    check: Callable[[dict], bool]


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One row of the registry: a runner, its two scales, its claims.

    Attributes:
        title: the ``repro list`` line.
        paper: the sentence / section of the paper reproduced.
        run: the runner; its defaults are the full scale.
        ci: smoke-scale kwargs (tier-1 and ``--scale ci``).
        claims: the reproduction contract, gated at both scales.
    """

    title: str
    paper: str
    run: Callable[..., dict]
    ci: dict[str, Any]
    claims: tuple[Claim, ...]


def evaluate(experiment: Experiment, result: dict) -> list[tuple[Claim, bool]]:
    """Every claim of ``experiment`` with its verdict on ``result``."""
    return [
        (claim, bool(claim.check(result))) for claim in experiment.claims
    ]


def result_json(node: Any) -> Any:
    """A row's result (or any part of it) as strict JSON data.

    A scorecard becomes its ``to_json()`` and any other dataclass its
    fields; an enum becomes its name, a tuple (``CeeEvent`` too) a
    list, a set a sorted list, a numpy scalar its Python value and a
    non-finite float the string ``"inf"``, ``"-inf"`` or ``"nan"``, so
    it stays apart from a real ``None``.  Two keys with one JSON name,
    or a value JSON has no form for, raise ``TypeError``.
    """
    if isinstance(node, CampaignScorecard):
        node = node.to_json()
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        node = {
            field.name: getattr(node, field.name)
            for field in dataclasses.fields(node)
        }
    if isinstance(node, dict):
        plain: dict[str, Any] = {}
        for key, value in node.items():
            name = result_json(key)
            if isinstance(name, (int, float)):
                name = json.dumps(name)
            if not isinstance(name, str):
                raise TypeError(f"no JSON key for {key!r}")
            if name in plain:
                raise TypeError(f"two keys are named {name!r} in JSON")
            plain[name] = result_json(value)
        return plain
    if isinstance(node, enum.Enum):
        return node.name
    if isinstance(node, np.generic):
        node = node.item()
    if isinstance(node, float):
        return node if math.isfinite(node) else str(node)
    if node is None or isinstance(node, (bool, int, str)):
        return node
    if isinstance(node, (list, tuple)):
        return [result_json(item) for item in node]
    if isinstance(node, (set, frozenset)):
        return sorted(result_json(item) for item in node)
    raise TypeError(f"no JSON form for {type(node).__name__}")


def _healthy(core_id: str, seed: int = 0) -> Core:
    return Core(core_id, rng=np.random.default_rng(seed))


def _force_active(defect) -> None:
    """Zero a sampled defect's onset so it is failing *today*.

    Case-study experiments sample defect shapes from the catalog but
    study cores that are already symptomatic, so latency is collapsed
    while escalation is preserved.
    """
    defect.aging = AgingProfile(
        onset_days=0.0,
        escalation_per_year=defect.aging.escalation_per_year,
        saturation=defect.aging.saturation,
    )


def _pool(n: int, seed: int = 100) -> list[Core]:
    return [_healthy(f"pool/c{i:02d}", seed + i) for i in range(n)]


# ---------------------------------------------------------------------
# F1 — Figure 1: reported CEE rates (normalized)
# ---------------------------------------------------------------------

#: width (days) of Fig. 1's report-rate buckets
FIG1_BUCKET_DAYS = 60.0


def run_fig1(
    n_machines: int = 12000,
    horizon_days: float = 540.0,
    warmup_days: float = 240.0,
    prevalence_scale: float = 8.0,
    seed: int = 42,
) -> dict:
    """Fig. 1: user- vs automatically-reported CEE rates over time.

    ``prevalence_scale`` densifies the mercurial population so a
    simulable fleet (10^4 machines, not the paper's 10^5+) yields a
    smooth series; the figure is normalized, so this only reduces
    variance.  Expected shape: automated series gradually increasing,
    user series roughly flat.
    """
    products = tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * prevalence_scale)
        for p in DEFAULT_PRODUCTS
    )
    builder = FleetBuilder(
        products=products,
        seed=seed,
        deployment_window=(-800.0, horizon_days),
        technology_refresh=True,
    )
    simulator = FleetSimulator(
        builder.build_columns(n_machines),
        config=SimulatorConfig(
            horizon_days=horizon_days, warmup_days=warmup_days
        ),
        seed=seed + 1,
    )
    truth = simulator.truth
    result = simulator.run()
    auto = result.cee_report_series(Reporter.AUTOMATED, FIG1_BUCKET_DAYS)
    human = result.cee_report_series(Reporter.HUMAN, FIG1_BUCKET_DAYS)
    return {
        "auto_series": auto,
        "human_series": human,
        "auto_slope": trend_slope(auto),
        "human_slope": trend_slope(human),
        "n_mercurial": truth.n_mercurial,
        "quarantined": len(result.quarantined_cores),
        "rendered": render_fig1(auto, human),
    }


# ---------------------------------------------------------------------
# E1 — incidence: a few mercurial cores per several thousand machines
# ---------------------------------------------------------------------

def _incidence_trial(
    trial: Trial, *, n_machines: int, horizon_days: float,
) -> dict:
    """One seeded E1 campaign.

    Runs entirely on the columnar substrate (no ``Core`` objects).
    """
    columns = FleetBuilder(
        seed=trial.seed, deployment_window=(-900.0, 0.0)
    ).build_columns(n_machines)
    simulator = FleetSimulator(
        columns,
        config=SimulatorConfig(horizon_days=horizon_days, warmup_days=0.0),
        seed=trial.seed + 1,
    )
    truth = simulator.truth
    truth_map = columns.ground_truth_map()
    result = simulator.run()
    detection = confusion(truth_map, result.flagged())
    publish_confusion(detection, detector="fleet")
    return {
        "trial": trial.index,
        "seed": trial.seed,
        "n_mercurial": truth.n_mercurial,
        "true_positives": detection.true_positives,
        "false_positives": detection.false_positives,
        "false_negatives": detection.false_negatives,
        "truth_per_kmachine": incidence_per_kmachine(
            truth.n_mercurial, n_machines
        ),
        "detected_per_kmachine": incidence_per_kmachine(
            detection.true_positives, n_machines
        ),
        "precision": detection.precision,
        "recall": detection.recall,
    }


def run_incidence(
    n_machines: int = 12000,
    seed: int = 7,
    horizon_days: float = 270.0,
    n_trials: int = 1,
    workers: int | None = None,
) -> dict:
    """E1: ground-truth and detected incidence per 1000 machines.

    With ``n_trials == 1`` (the default) this is the single campaign it
    always was, seeded directly from ``seed``.  With more trials, the
    engine fans seeded campaigns out over ``workers`` processes and the
    headline numbers become trial means (precision/recall pooled over
    the summed confusion counts).  Results are identical for any
    ``workers`` value.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    trial_fn = functools.partial(
        _incidence_trial, n_machines=n_machines, horizon_days=horizon_days
    )
    if n_trials == 1:
        per_trial = [trial_fn(Trial(0, seed))]
    else:
        per_trial = run_trials(
            trial_fn, n_trials, seed=seed, workers=workers
        )
    truth_rate = float(
        np.mean([t["truth_per_kmachine"] for t in per_trial])
    )
    detected_rate = float(
        np.mean([t["detected_per_kmachine"] for t in per_trial])
    )
    tp = sum(t["true_positives"] for t in per_trial)
    fp = sum(t["false_positives"] for t in per_trial)
    fn = sum(t["false_negatives"] for t in per_trial)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    total_mercurial = sum(t["n_mercurial"] for t in per_trial)
    estimate = poisson_rate_ci(
        total_mercurial, n_trials * n_machines / 1000.0
    )
    rendered = render_table(
        ["quantity", "value"],
        [
            ["machines", n_machines],
            ["trials", n_trials],
            ["mercurial cores (truth)", total_mercurial],
            ["per 1000 machines (truth)", f"{truth_rate:.2f}"],
            ["95% CI", f"[{estimate.lower:.2f}, {estimate.upper:.2f}]"],
            ["per 1000 machines (detected)", f"{detected_rate:.2f}"],
            ["detector precision", f"{precision:.2f}"],
            ["detector recall", f"{recall:.2f}"],
        ],
        title="E1: mercurial-core incidence",
    )
    return {
        "truth_per_kmachine": truth_rate,
        "detected_per_kmachine": detected_rate,
        "precision": precision,
        "recall": recall,
        "n_trials": n_trials,
        "per_trial": per_trial,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E2 — symptom classes in increasing order of risk
# ---------------------------------------------------------------------

def run_symptoms(n_cores: int = 40, seed: int = 3) -> dict:
    """E2: classify what sampled defective cores do to real workloads.

    Each sampled mercurial core runs the standard workload mix; every
    unit of work is also run on a reference core so silent corruptions
    are visible to the experimenter (not to the application).
    """
    rng = np.random.default_rng(seed)
    counts = {symptom: 0 for symptom in Symptom}
    per_core_rates = []
    for index in range(n_cores):
        defects = sample_core_defects(rng, f"e2/c{index}")
        for defect in defects:
            _force_active(defect)
        core = Core(
            f"e2/c{index:03d}", defects=defects,
            rng=np.random.default_rng(seed + index),
        )
        reference = _healthy(f"e2ref/c{index:03d}")
        corruptions = 0
        for spec in STANDARD_MIX:
            work = spec.build(seed * 1000 + index)
            try:
                comparison = run_with_oracle(work, core, reference)
            except MachineCheckError:
                counts[Symptom.MACHINE_CHECK] += 1
                continue
            suspect = comparison.suspect
            if suspect.crashed:
                counts[Symptom.WRONG_ANSWER_IMMEDIATE] += 1
            elif suspect.app_detected:
                counts[Symptom.WRONG_ANSWER_IMMEDIATE] += 1
            elif comparison.outputs_differ:
                counts[Symptom.WRONG_ANSWER_UNDETECTED] += 1
            if comparison.outputs_differ:
                corruptions += 1
        per_core_rates.append(core.mean_rate(blended_op_mix()))
    rendered = render_table(
        ["symptom (risk rank)", "observations"],
        [
            [f"{s.value} ({s.risk_rank})", counts[s]]
            for s in Symptom
        ],
        title="E2: symptom classes over sampled mercurial cores",
    )
    return {"counts": counts, "per_core_rates": per_core_rates, "rendered": rendered}


# ---------------------------------------------------------------------
# E3 — the self-inverting AES defect
# ---------------------------------------------------------------------

def run_aes_case(seed: int = 5) -> dict:
    """E3: same-core round trip = identity; elsewhere = gibberish."""
    defective = Core(
        "e3/bad", defects=named_case("self_inverting_aes"),
        rng=np.random.default_rng(seed),
    )
    healthy = _healthy("e3/good")
    key = bytes(range(16))
    message = b"mercurial cores corrupt silently" * 4
    ct_bad = encrypt_ecb(defective, message, key)
    ct_good = encrypt_ecb(healthy, message, key)
    same_core_roundtrip = decrypt_ecb(defective, ct_bad, key) == message
    try:
        elsewhere = decrypt_ecb(healthy, ct_bad, key)
        cross_core_garbage = elsewhere != message
    except ValueError:
        cross_core_garbage = True  # even the padding was destroyed
    # The naive self-check is blind; the cross-check corpus test is not.
    corpus = TestCorpus.standard(seeds=(seed,))
    screen = corpus.screen(defective)
    # Self-checking cipher with cross-core verification catches it too.
    checked = CheckedCipher(defective, verify_core=healthy)
    try:
        checked.encrypt(message, key)
        cross_core_selfcheck_caught = False
    except SelfCheckError:
        cross_core_selfcheck_caught = True
    rendered = render_table(
        ["observation", "result"],
        [
            ["ciphertext differs from healthy", ct_bad != ct_good],
            ["same-core encrypt+decrypt == identity", same_core_roundtrip],
            ["decrypt elsewhere yields gibberish", cross_core_garbage],
            ["corpus cross-check catches core", screen.confessed],
            ["cross-core CheckedCipher catches", cross_core_selfcheck_caught],
        ],
        title="E3: deterministic self-inverting AES miscomputation",
    )
    return {
        "ciphertext_differs": ct_bad != ct_good,
        "same_core_roundtrip_identity": same_core_roundtrip,
        "cross_core_garbage": cross_core_garbage,
        "corpus_catches": screen.confessed,
        "checked_cipher_catches": cross_core_selfcheck_caught,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E4 — propagation case studies
# ---------------------------------------------------------------------

#: word strings E4 copies through the bit-flipping core
PROPAGATION_STRINGS = 300


def run_propagation(seed: int = 11) -> dict:
    """E4: fixed-position bit flips, per-replica DB corruption, GC loss."""
    # (a) repeated bit-flips at a particular bit position
    flipper = Core(
        "e4/flip", defects=named_case("string_bit_flipper"),
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed)
    flip_positions: list[int] = []
    for _ in range(PROPAGATION_STRINGS):
        words = [int(x) for x in rng.integers(0, 2**60, size=32)]
        copied = copy_words(flipper, words)
        for original, observed in zip(words, copied):
            delta = original ^ observed
            if delta:
                flip_positions.append(delta.bit_length() - 1)
    distinct_positions = set(flip_positions)

    # (b) database replica nondeterminism
    keys = [int(x) for x in rng.integers(0, 2**40, size=400)]
    bad_core = Core(
        "e4/db", defects=named_case("comparator_flip"),
        rng=np.random.default_rng(seed + 1),
    )
    replicas = [Replica(_healthy("e4/r0")), Replica(bad_core),
                Replica(_healthy("e4/r2"))]
    for key in keys:
        for replica in replicas:
            replica.insert(key, payload=(key,))
    probes = keys[::2]
    stats = [probe_replica(replica, probes) for replica in replicas]
    replica_errors = [s.error_fraction for s in stats]

    # (c) GC losing live data
    gc_core = Core(
        "e4/gc",
        defects=[StuckBitDefect("gcflip", bit=3, mode="flip", base_rate=6e-3,
                                unit=FunctionalUnit.LOAD_STORE)],
        rng=np.random.default_rng(seed + 2),
    )
    fs = MiniFs(gc_core, n_blocks=1024)
    file_data = {
        f"f{i}": bytes(rng.integers(0, 256, size=300, dtype=np.uint8))
        for i in range(12)
    }
    for name, data in file_data.items():
        fs.write_file(name, data)
    for _ in range(6):
        fs.gc()
    late_detected_losses = 0
    for name, data in file_data.items():
        try:
            if fs.read_file(name) != data:
                late_detected_losses += 1
        except FsError:
            late_detected_losses += 1
    rendered = render_table(
        ["case", "observation"],
        [
            ["bit-flip positions seen", sorted(distinct_positions)],
            ["flips observed", len(flip_positions)],
            ["replica error fractions", [f"{e:.3f}" for e in replica_errors]],
            ["GC live blocks lost", fs.lost_blocks],
            ["files lost (found at read time)", late_detected_losses],
        ],
        title="E4: corruption propagation case studies",
    )
    return {
        "flip_positions": distinct_positions,
        "n_flips": len(flip_positions),
        "replica_errors": replica_errors,
        "gc_lost_blocks": fs.lost_blocks,
        "late_detected_losses": late_detected_losses,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E5 — the factor-of-two / factor-of-three redundancy bill
# ---------------------------------------------------------------------

#: work units E5 runs under each redundancy scheme
REDUNDANCY_UNITS = 6


def run_redundancy_cost(seed: int = 13) -> dict:
    """E5: measured op-cost of DMR and TMR vs unchecked execution."""
    spec = STANDARD_MIX[0]  # hashing: deterministic, cheap

    def measure(execute: Callable[[list[OpCountingCore]], None], n_cores: int) -> int:
        counters = [
            OpCountingCore(_healthy(f"e5/c{i}", seed + i)) for i in range(n_cores)
        ]
        execute(counters)
        return sum(c.total_ops for c in counters)

    def run_unchecked(cores: list[OpCountingCore]) -> None:
        for unit in range(REDUNDANCY_UNITS):
            spec.build(seed + unit)(cores[0])

    def run_dmr(cores: list[OpCountingCore]) -> None:
        executor = DmrExecutor(cores)
        for unit in range(REDUNDANCY_UNITS):
            executor.run(spec.build(seed + unit))

    def run_tmr(cores: list[OpCountingCore]) -> None:
        executor = TmrExecutor(cores)
        for unit in range(REDUNDANCY_UNITS):
            executor.run(spec.build(seed + unit))

    base = measure(run_unchecked, 1)
    dmr = measure(run_dmr, 2)
    tmr = measure(run_tmr, 3)
    rendered = render_table(
        ["mode", "ops", "factor"],
        [
            ["unchecked", base, "1.00x"],
            ["DMR (detect)", dmr, f"{dmr / base:.2f}x"],
            ["TMR (correct)", tmr, f"{tmr / base:.2f}x"],
        ],
        title="E5: redundant-execution cost (§3's 2x / 3x)",
    )
    return {
        "base_ops": base,
        "dmr_ops": dmr,
        "tmr_ops": tmr,
        "dmr_factor": dmr / base,
        "tmr_factor": tmr / base,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E6 — rates vary by many orders of magnitude
# ---------------------------------------------------------------------

def run_rate_spread(n_defects: int = 400, seed: int = 17) -> dict:
    """E6: observable per-op corruption rates across sampled defects."""
    rng = np.random.default_rng(seed)
    mix = blended_op_mix()
    rates = []
    for index in range(n_defects):
        defect = sample_defect(rng, f"e6/d{index}")
        rate = defect.mean_rate(mix, NOMINAL, age_days=1500.0)
        if rate > 0:
            rates.append(rate)
    spread = orders_of_magnitude_spread(rates)
    quantiles = np.quantile(rates, [0.05, 0.5, 0.95])
    rendered = render_table(
        ["quantity", "value"],
        [
            ["defects sampled", n_defects],
            ["active under mix", len(rates)],
            ["p5 rate/op", f"{quantiles[0]:.2e}"],
            ["median rate/op", f"{quantiles[1]:.2e}"],
            ["p95 rate/op", f"{quantiles[2]:.2e}"],
            ["spread (orders of magnitude)", f"{spread:.1f}"],
        ],
        title="E6: per-core corruption-rate heterogeneity",
    )
    return {"rates": rates, "spread_orders": spread, "rendered": rendered}


# ---------------------------------------------------------------------
# E7 — f/V/T sensitivity and the shared copy/vector logic
# ---------------------------------------------------------------------

def run_fvt(seed: int = 19) -> dict:
    """E7: rate vs DVFS state; the low-frequency anomaly; shared logic."""
    table = DvfsTable()
    mix = blended_op_mix()
    freq_defect = StuckBitDefect(
        "e7/freq", bit=11, base_rate=1e-6,
        unit=FunctionalUnit.ALU,
        sensitivity=FrequencySensitivity(factor_per_ghz=5.0),
    )
    volt_defect = StuckBitDefect(
        "e7/volt", bit=12, base_rate=1e-6,
        unit=FunctionalUnit.ALU,
        sensitivity=VoltageMarginSensitivity(factor_per_50mv=3.5),
    )
    rows = []
    freq_rates = []
    volt_rates = []
    for index in range(len(table.states)):
        env = table.operating_point(index)
        fr = freq_defect.mean_rate(mix, env, age_days=10.0)
        vr = volt_defect.mean_rate(mix, env, age_days=10.0)
        freq_rates.append(fr)
        volt_rates.append(vr)
        rows.append(
            [f"{env.frequency_ghz:.1f}GHz/{env.voltage_v:.2f}V",
             f"{fr:.2e}", f"{vr:.2e}"]
        )
    # Shared copy/vector logic: one defect, both workload families.
    shared = Core(
        "e7/shared",
        defects=[SharedLogicDefect("e7/shuffle", base_rate=2e-3)],
        rng=np.random.default_rng(seed),
    )
    reference = _healthy("e7/ref")
    rng = np.random.default_rng(seed)
    copy_corruptions = 0
    vector_corruptions = 0
    for _ in range(20):
        words = [int(x) for x in rng.integers(0, 2**60, size=256)]
        if copy_words(shared, words) != copy_words(reference, words):
            copy_corruptions += 1
        if xor_fold(shared, words) != xor_fold(reference, words):
            vector_corruptions += 1
    rendered = render_table(
        ["DVFS state", "freq-sensitive rate", "volt-sensitive rate"],
        rows,
        title=(
            "E7: CEE rate vs operating point "
            "(volt-sensitive column INCREASES at lower frequency: "
            "the §5 anomaly via DVFS coupling)"
        ),
    ) + (
        f"\nshared-logic defect: copy corruptions {copy_corruptions}/20, "
        f"vector corruptions {vector_corruptions}/20 (same physical defect)"
    )
    return {
        "freq_rates": freq_rates,
        "volt_rates": volt_rates,
        "copy_corruptions": copy_corruptions,
        "vector_corruptions": vector_corruptions,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E8 — half of human-identified suspects are proven mercurial
# ---------------------------------------------------------------------

#: share of E8's production incidents that a mercurial core caused
TRIAGE_CEE_FRACTION = 0.45


def run_triage(n_incidents: int = 250, seed: int = 23) -> dict:
    """E8: the human-triage funnel with real confession tests.

    A stream of production incidents (a calibrated mix of genuine
    core-caused incidents and ordinary software failures) drives
    suspect filing; each filed suspect is investigated by running the
    actual screening corpus against the actual core.
    """
    rng = np.random.default_rng(seed)
    triage = HumanTriageModel(rng)
    corpus = TestCorpus.standard(seeds=(1,))
    healthy_pool = _pool(8, seed)
    investigated = 0
    for index in range(n_incidents):
        is_cee = rng.random() < TRIAGE_CEE_FRACTION
        if not triage.files_suspect(incident_is_cee=is_cee):
            continue
        if is_cee and triage.attributed_core_is_right():
            # Cores that *caused a production incident* are biased
            # loud: quiet defects rarely surface as incidents at all.
            defects = sample_core_defects(
                rng, f"e8/{index}", rate_decades=(-4.0, -2.5)
            )
            for defect in defects:
                # incidents come from cores that are failing *now*
                _force_active(defect)
            suspect = Core(
                f"e8/bad{index}", defects=defects,
                rng=np.random.default_rng(seed + index),
            )
            is_mercurial = True
        else:
            suspect = healthy_pool[index % len(healthy_pool)]
            is_mercurial = False
        investigated += 1
        triage.investigate(
            core_id=suspect.core_id,
            core_is_mercurial=is_mercurial,
            started_days=float(index),
            confession_test=lambda s=suspect: not corpus.screen(s).passed,
            attempts=2,
        )
    fractions = triage.outcome_fractions()
    rendered = render_table(
        ["outcome", "fraction"],
        [[outcome.value, f"{fractions[outcome]:.2f}"] for outcome in TriageOutcome]
        + [["investigations", investigated]],
        title="E8: human-identified suspects (paper: ~half confirmed)",
    )
    return {
        "confirmed_fraction": fractions[TriageOutcome.CONFIRMED],
        "fractions": {k.value: v for k, v in fractions.items()},
        "investigations": investigated,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E9 — offline vs online screening
# ---------------------------------------------------------------------

def run_screening_tradeoff(seed: int = 29, n_rates: int = 120) -> dict:
    """E9: the coverage/time-to-detect/cost frontier of the two modes,
    plus a live demonstration that offline stress catches an
    environment-gated defect online screening cannot."""
    rng = np.random.default_rng(seed)
    rates = [float(10.0 ** rng.uniform(-8.0, -3.0)) for _ in range(n_rates)]
    policies = [
        ScreeningPolicy(period_days=7.0, corpus_ops=2e5, env_boost=1.0),
        ScreeningPolicy(period_days=1.0, corpus_ops=2e5, env_boost=1.0),
        ScreeningPolicy(period_days=90.0, corpus_ops=2e6, env_boost=6.0,
                        drain_coreseconds=120.0),
        ScreeningPolicy(period_days=30.0, corpus_ops=2e6, env_boost=6.0,
                        drain_coreseconds=120.0),
    ]
    labels = ["online weekly", "online daily", "offline quarterly",
              "offline monthly"]
    frontier = policy_frontier(policies, rates)
    rows = [
        [
            label,
            f"{row['median_days_to_detect']:.1f}",
            f"{row['detectable_fraction']:.2f}",
            f"{row['compute_cost_fraction']:.2e}",
        ]
        for label, row in zip(labels, frontier)
    ]
    # Live demonstration with real screeners on a voltage-gated defect.
    gated = Core(
        "e9/gated",
        defects=[
            StuckBitDefect(
                "e9/volt", bit=7, base_rate=1e-7,
                sensitivity=VoltageMarginSensitivity(factor_per_50mv=50.0),
            )
        ],
        rng=np.random.default_rng(seed),
    )
    online_result = OnlineScreener().screen_core(gated)
    offline_result = OfflineScreener(
        config=OfflineScreenerConfig(repetitions_per_point=1)
    ).screen_core(gated)
    rendered = render_table(
        ["policy", "median days to detect", "detectable fraction",
         "compute cost"],
        rows,
        title="E9: screening-policy frontier",
    ) + (
        f"\nvoltage-gated defect: online confessed={online_result.confessed}, "
        f"offline (stress sweep) confessed={offline_result.confessed}"
    )
    return {
        "frontier": frontier,
        "labels": labels,
        "online_caught_gated": online_result.confessed,
        "offline_caught_gated": offline_result.confessed,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E10 — core-level vs machine-level isolation
# ---------------------------------------------------------------------

def run_isolation(n_machines: int = 40, seed: int = 31) -> dict:
    """E10: capacity saved by core quarantine, plus safe-task placement."""
    fleet = FleetBuilder(seed=seed).build_columns(n_machines)
    # Quarantine one seeded core on each of the first (up to) six
    # machines.  No defect is planted: the fleet's own mercurial cores
    # (none at the default sizes) decide which strandings are healthy.
    rng = np.random.default_rng(seed)
    planted: list[tuple[int, int]] = []
    for machine in range(min(6, n_machines)):
        start, stop = fleet.machine_core_range(machine)
        planted.append((machine, start + int(rng.integers(stop - start))))

    # Strategy A: machine-level quarantine.
    fleet_a = fleet.thaw()
    mq = MachineQuarantine()
    for machine, _ in planted:
        mq.remove(fleet_a, machine, running_tasks=8)
    _, stats_a = FleetScheduler(fleet_a).schedule(
        [Task(f"t{i}") for i in range(10)]
    )

    # Strategy B: core-level quarantine (CSR).
    fleet_b = fleet.thaw()
    cq = CoreQuarantine()
    implicated = {}
    for _, flat in planted:
        cq.remove(fleet_b, flat, running_tasks=1)
        implicated[fleet_b.core_id(flat)] = frozenset({FunctionalUnit.VECTOR})
    scheduler_b = FleetScheduler(fleet_b)
    _, stats_b = scheduler_b.schedule([Task(f"t{i}") for i in range(10)])

    # Strategy C: core quarantine + safe tasks (§6.1 speculation).
    total_slots = stats_b.slots_total
    scalar_mix = {Op.ADD: 0.5, Op.XOR: 0.3, Op.MUL: 0.2}
    scheduler_c = FleetScheduler(
        fleet_b, allow_safe_tasks=True,
        implicated_units_by_core=implicated,
    )
    online_b, _ = scheduler_b.capacity()
    overload = [Task(f"t{i}", op_mix=scalar_mix) for i in range(online_b + 4)]
    _, stats_c = scheduler_c.schedule(overload)

    stranded_fraction = {
        "machine": stats_a.stranded_fraction,
        "core": stats_b.stranded_fraction,
        "safe_tasks": (
            stats_b.slots_stranded - stats_c.placed_on_quarantined
        ) / total_slots,
    }
    rendered = render_table(
        ["strategy", "slots stranded", "stranded fraction", "migrations"],
        [
            ["machine quarantine", mq.cost.cores_stranded,
             f"{stranded_fraction['machine']:.4f}", mq.cost.migrations],
            ["core quarantine (CSR)", cq.cost.cores_stranded,
             f"{stranded_fraction['core']:.4f}", cq.cost.migrations],
            ["CSR + safe tasks",
             cq.cost.cores_stranded - stats_c.placed_on_quarantined,
             f"{stranded_fraction['safe_tasks']:.4f}",
             cq.cost.migrations],
        ],
        title=f"E10: isolation strategies ({len(planted)} bad cores)",
    )
    return {
        "machine_stranded": mq.cost.cores_stranded,
        "core_stranded": cq.cost.cores_stranded,
        "safe_task_placements": stats_c.placed_on_quarantined,
        "machine_healthy_stranded": mq.cost.healthy_cores_stranded,
        "machine_migrations": mq.cost.migrations,
        "core_migrations": cq.cost.migrations,
        "stranded_fraction": stranded_fraction,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E11 — end-to-end mitigation effectiveness
# ---------------------------------------------------------------------

#: per-op rate of E11's bit-flipping ALU defect
LADDER_DEFECT_RATE = 2e-4


def run_mitigation_ladder(n_units: int = 40, seed: int = 37) -> dict:
    """E11: escaped corruptions under increasingly strong mitigations.

    One core of the worker pool is mercurial (bit-flipping ALU/copy
    paths).  The same deterministic work units run under: no
    protection, checkpoint+invariant, DMR, and TMR.  Escapes = units
    whose final output digest differs from the healthy reference.
    """
    def build_pool() -> list[Core]:
        pool = _pool(6, seed)
        pool[0] = Core(
            "pool/c00",
            defects=[
                StuckBitDefect(
                    "e11/bit", bit=21, base_rate=LADDER_DEFECT_RATE,
                    unit=FunctionalUnit.ALU,
                )
            ],
            rng=np.random.default_rng(seed),
        )
        return pool

    spec = STANDARD_MIX[0]  # hashing
    reference = _healthy("e11/ref")
    expected = [
        spec.build(seed + unit)(reference).output_digest
        for unit in range(n_units)
    ]

    def score(run_unit: Callable[[int, list[Core]], int | None]) -> tuple[int, int]:
        pool = build_pool()
        escaped = 0
        detected = 0
        for unit in range(n_units):
            digest = run_unit(unit, pool)
            if digest is None:
                detected += 1
            elif digest != expected[unit]:
                escaped += 1
        return escaped, detected

    def unprotected(unit: int, pool: list[Core]) -> int | None:
        return spec.build(seed + unit)(pool[0]).output_digest

    def dmr(unit: int, pool: list[Core]) -> int | None:
        executor = DmrExecutor(pool)
        try:
            outcome = executor.run(spec.build(seed + unit))
        except RedundancyExhaustedError:
            return None
        return outcome.result.output_digest

    def tmr(unit: int, pool: list[Core]) -> int | None:
        executor = TmrExecutor(pool)
        try:
            outcome = executor.run(spec.build(seed + unit))
        except RedundancyExhaustedError:
            return None
        return outcome.result.output_digest

    escaped_plain, _ = score(unprotected)
    escaped_dmr, detected_dmr = score(dmr)
    escaped_tmr, detected_tmr = score(tmr)

    rendered = render_table(
        ["mitigation", "escaped corruptions", "detected-and-handled"],
        [
            ["unprotected", escaped_plain, 0],
            ["DMR + retry", escaped_dmr, detected_dmr],
            ["TMR vote", escaped_tmr, detected_tmr],
        ],
        title=f"E11: corruption escapes over {n_units} work units "
              f"(1 of 6 pool cores mercurial)",
    )
    return {
        "escaped_unprotected": escaped_plain,
        "escaped_dmr": escaped_dmr,
        "escaped_tmr": escaped_tmr,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E12 — ABFT and resilient algorithms
# ---------------------------------------------------------------------

#: side of E12's square operand matrices
ABFT_SIZE = 6


def run_abft(seed: int = 41, n_trials: int = 8) -> dict:
    """E12: vanilla vs checksummed algorithms on a defective core."""
    rng = np.random.default_rng(seed)
    bad = Core(
        "e12/bad",
        defects=[
            StuckBitDefect("e12/mul", bit=9, base_rate=4e-3,
                           unit=FunctionalUnit.MUL_DIV)
        ],
        rng=np.random.default_rng(seed),
    )
    healthy = _healthy("e12/ref")
    vanilla_wrong = 0
    abft_wrong = 0
    abft_corrected = 0
    abft_flagged = 0
    for _ in range(n_trials):
        a = [[int(x) for x in row]
             for row in rng.integers(0, 2**30, (ABFT_SIZE, ABFT_SIZE))]
        b = [[int(x) for x in row]
             for row in rng.integers(0, 2**30, (ABFT_SIZE, ABFT_SIZE))]
        expected = matmul(healthy, a, b)
        if matmul(bad, a, b) != expected:
            vanilla_wrong += 1
        try:
            result, corrections = abft_matmul(bad, a, b, checker_core=healthy)
            abft_corrected += corrections
            if result != expected:
                abft_wrong += 1
        except AbftError:
            abft_flagged += 1
    # Resilient sort vs plain sort on a comparator-defective core.
    cmp_bad = Core(
        "e12/cmp", defects=named_case("comparator_flip"),
        rng=np.random.default_rng(seed + 1),
    )
    values = [int(x) for x in rng.integers(0, 2**48, size=250)]
    plain_wrong = merge_sort(cmp_bad, values) != sorted(values)
    resilient_ok = resilient_sort(
        [cmp_bad, _healthy("e12/s1"), _healthy("e12/s2")], values
    ) == sorted(values)
    # Checksummed LU detects multiplier corruption.
    lu_detections = 0
    for _ in range(n_trials):
        m = [[int(x) for x in row] for row in rng.integers(1, 2**40, (5, 5))]
        for i in range(5):
            m[i][i] += 2**50
        try:
            checksummed_lu(bad, m)
        except AbftError:
            lu_detections += 1
    rendered = render_table(
        ["algorithm", "outcome"],
        [
            ["vanilla matmul wrong results", f"{vanilla_wrong}/{n_trials}"],
            ["ABFT matmul silent wrong", f"{abft_wrong}/{n_trials}"],
            ["ABFT corrections applied", abft_corrected],
            ["ABFT uncorrectable (flagged)", abft_flagged],
            ["plain sort misordered", plain_wrong],
            ["resilient sort correct", resilient_ok],
            ["checksummed LU detections", f"{lu_detections}/{n_trials}"],
        ],
        title="E12: SDC-resilient algorithms vs vanilla",
    )
    return {
        "vanilla_wrong": vanilla_wrong,
        "abft_silent_wrong": abft_wrong,
        "abft_corrected": abft_corrected,
        "abft_flagged": abft_flagged,
        "plain_sort_wrong": plain_wrong,
        "resilient_sort_ok": resilient_ok,
        "lu_detections": lu_detections,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E13 — report concentration
# ---------------------------------------------------------------------

def run_report_concentration(seed: int = 43) -> dict:
    """E13: concentrated reports → quarantine; spread reports → dismissed."""
    rng = np.random.default_rng(seed)
    service = CoreComplaintService(n_cores_visible=10000)
    # Background: 120 reports spread uniformly.
    for index in range(120):
        service.report(
            Complaint(
                time_days=float(index), application=f"app{index % 6}",
                machine_id=f"m{rng.integers(500):04d}",
                core_id=f"m{rng.integers(500):04d}/c{rng.integers(32):02d}",
            )
        )
    # Signal: 7 reports from 3 applications against one core.
    for index in range(7):
        service.report(
            Complaint(
                time_days=float(index), application=f"app{index % 3}",
                machine_id="m0042", core_id="m0042/c07",
            )
        )
    suspects = service.analyze()
    candidates = service.quarantine_candidates()
    top = suspects[0] if suspects else None
    rendered = render_table(
        ["core", "reports", "apps", "p-value", "quarantine?"],
        [
            [s.core_id, s.reports, s.applications, f"{s.p_value:.2e}",
             s.grounds_for_quarantine]
            for s in suspects[:5]
        ],
        title="E13: complaint-concentration analysis",
    )
    return {
        "top_suspect": top.core_id if top else None,
        "candidates": [s.core_id for s in candidates],
        "n_suspects_over_threshold": len(candidates),
        "suspects": [
            [s.core_id, s.reports, s.applications, s.p_value,
             s.grounds_for_quarantine]
            for s in suspects[:5]
        ],
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E14 — aging: onset and escalation
# ---------------------------------------------------------------------

#: onset ages E14 samples for its empirical CDF
AGING_DEFECTS = 3000


def run_aging(seed: int = 47) -> dict:
    """E14: onset-age distribution and post-onset escalation."""
    rng = np.random.default_rng(seed)
    onset = WeibullOnset()
    onsets = [onset.sample(rng) for _ in range(AGING_DEFECTS)]
    horizons = [0.0, 180.0, 365.0, 730.0, 1460.0]
    cdf_rows = [
        [f"{h:.0f}d", f"{onset.cdf(h):.2f}",
         f"{sum(1 for o in onsets if o <= h) / AGING_DEFECTS:.2f}"]
        for h in horizons
    ]
    stats = onset_stats(onsets, horizon_days=730.0)
    # Escalation: a defect that "gets worse with time" (§2).
    profile = onset.sample_profile(np.random.default_rng(seed + 1),
                                   escalation_range=(2.0, 2.0))
    escalation = [
        profile.rate_multiplier(profile.onset_days + days)
        for days in (0.0, 182.5, 365.0, 730.0)
    ]
    rendered = render_table(
        ["age", "model CDF", "empirical CDF"],
        cdf_rows,
        title="E14: defect onset by machine age",
    ) + (
        f"\nonset within 730d: median={stats.median_days:.0f}d, "
        f"censored beyond horizon={stats.censored_fraction:.0%}"
        f"\nescalation at onset/+6mo/+12mo/+24mo: "
        + "/".join(f"{e:.1f}x" for e in escalation)
    )
    return {
        "onsets": onsets,
        "model_cdf_365": onset.cdf(365.0),
        "model_cdf": {h: onset.cdf(h) for h in horizons},
        "censored_fraction_730": stats.censored_fraction,
        "escalation": escalation,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E15 — serving under CEE: chaos campaign, hardened vs unhardened
# ---------------------------------------------------------------------

def _detection_latency_line(label: str, summary: dict) -> str:
    """One rendered line of corrupt→quarantine latency percentiles."""
    pcts = latency_percentiles(summary, "corrupt_to_quarantine_ms")
    if not pcts.get("n"):
        return f"\n{label}: no completed corrupt->quarantine incidents"
    values = " ".join(
        f"{name}={pcts[name]:.0f}ms"
        for name in ("p50", "p90", "p99")
        if pcts[name] is not None
    )
    return (
        f"\n{label}: corrupt->quarantine {values} "
        f"(n={pcts['n']} incidents)"
    )


#: age (days) the E15/E16 chaos scripts advance the bad core to — also
#: its defect's onset, so the fleet starts clean and rots under load
ONSET_AGE_DAYS = 400.0


def _victim(replicas, bad_core_id: str) -> str:
    """The chaos victim must be a core that actually hosts a replica
    (placement is deterministic, but don't hard-code it here)."""
    return next(r.core_id for r in replicas if r.core_id != bad_core_id)


def _serving_script(campaign, bad_core_id, config) -> ChaosSchedule:
    return ChaosSchedule.standard(
        bad_core_id, _victim(campaign.router.replicas, bad_core_id),
        config.ticks, onset_age_days=ONSET_AGE_DAYS,
    )


def _storage_script(campaign, bad_core_id, config) -> ChaosSchedule:
    return ChaosSchedule.storage_standard(
        bad_core_id, _victim(campaign.store.replicas, bad_core_id),
        config.ticks, onset_age_days=ONSET_AGE_DAYS,
    )


def _scale_script(campaign, bad_core_ids, config) -> ChaosSchedule:
    # Chaos targets must be cores that actually host replicas: the
    # whole of shard 0 crashes (shard loss), and two of shard 1's
    # healthy cores eat the machine-check storm (breaker storm).
    shards = campaign.cluster.shards
    shard_loss = [r.core_id for r in shards[0].router.replicas]
    storm = [
        r.core_id for r in shards[1 % len(shards)].router.replicas
        if r.core_id not in bad_core_ids
    ][:2]
    return ChaosSchedule.serve_scale(
        bad_core_ids, shard_loss, storm, config.ticks
    )


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One row of the campaign table: how an experiment stands up an arm.

    Attributes:
        label: the ``repro trace`` title of the traced arm.
        build_fleet: ``build_*_fleet``; returns (machines, bad core id(s)).
        campaign: ``(machines, arm, config, seed)`` → the runner.
        config: the runner's config dataclass (scale knobs, ``tick_ms``).
        script: ``(campaign, bad, config)`` → the chaos script, assigned
            after construction because it targets placed replicas.
        trace_arm: the arm ``repro trace|metrics`` instruments.
        trace_fleet: fleet arguments of that traced run.
    """

    label: str
    build_fleet: Callable[..., tuple]
    campaign: Callable[..., Campaign]
    config: type
    script: Callable[..., ChaosSchedule] | None
    trace_arm: str
    trace_fleet: dict = dataclasses.field(default_factory=dict)


#: the object-fleet campaign experiments (``RideAlongCampaign`` — E19 —
#: is columnar and shares none of this)
CAMPAIGNS: dict[str, CampaignSpec] = {
    "E15": CampaignSpec(
        "E15 hardened",
        functools.partial(build_serving_fleet, onset_days=ONSET_AGE_DAYS),
        lambda machines, arm, config, seed: ServingCampaign(
            machines, config, getattr(HardeningConfig, arm)(), seed=seed
        ),
        CampaignConfig, _serving_script, "hardened",
    ),
    "E16": CampaignSpec(
        "E16 protected",
        functools.partial(build_storage_fleet, onset_days=ONSET_AGE_DAYS),
        lambda machines, arm, config, seed: StorageCampaign(
            machines, getattr(StorageProtections, arm)(), config, seed=seed
        ),
        StorageCampaignConfig, _storage_script, "protected",
    ),
    "E17": CampaignSpec(
        "E17 full",
        build_scale_fleet,
        lambda machines, arm, config, seed: ServeScaleCampaign(
            machines, config, getattr(ScaleHardening, arm)(), seed=seed
        ),
        ScaleConfig, _scale_script, "full", {"prevalence": 0.2},
    ),
    # Traced on MEEK: the richest signal mix — checker mismatches,
    # lag-overflow breadcrumbs, quarantines and lane re-placement.
    "E18": CampaignSpec(
        "E18 instrcheck (meek)",
        build_instrcheck_fleet,
        lambda machines, arm, config, seed: InstrCheckCampaign(
            machines, arm, config, seed=seed
        ),
        InstrCheckConfig, None, "meek", {"prevalence": 0.25},
    ),
}


def campaign_arm(
    arm: str,
    *,
    experiment_id: str,
    seed: int,
    fleet: dict | None = None,
    **config,
) -> tuple:
    """Run one arm of a campaign experiment.

    Fleet and campaign seeds depend only on ``seed`` — every arm at one
    seed (and one ``fleet``) faces the *identical* fleet, traffic and
    chaos script, whichever worker runs it.  Returns ``(scorecard,
    events, bad core id(s))``; the campaign object stays in the worker.
    """
    spec = CAMPAIGNS[experiment_id]
    machines, bad = spec.build_fleet(seed=seed + 7, **(fleet or {}))
    cfg = spec.config(**config)
    campaign = spec.campaign(machines, arm, cfg, seed + 3)
    if spec.script is not None:
        campaign.chaos = spec.script(campaign, bad, cfg)
    campaign.run()
    return campaign.scorecard, list(campaign.events), bad


def run_serving_under_cee(
    ticks: int = 1000, seed: int = 0, workers: int | None = None
) -> dict:
    """E15: a CEE-hardened RPC service vs a naive one, under chaos.

    Three configurations run the *same* chaos script (late-onset defect
    activation, a replica crash, a machine-check burst, a traffic
    burst) on identically-seeded fleets:

    - **unhardened** — trust every response; corrupt responses escape;
    - **hardened** — e2e validation, core-diverse retries, hedging,
      per-core circuit breakers feeding the quarantine policy, load
      shedding;
    - **validator-only** — the breaker ablation, to show that breaker
      trips *accelerate* quarantine of the offending core.

    Expected shape: the hardened escape rate drops ≥10× at <3× latency
    and goodput cost, and the breaker configuration quarantines the bad
    core earlier than validation signals alone.
    """
    campaign_fn = functools.partial(
        campaign_arm,
        experiment_id="E15",
        seed=seed,
        ticks=ticks,
    )
    arms = run_tasks(
        campaign_fn,
        ("unhardened", "hardened", "validator_only"),
        workers=workers,
    )
    cards = [card for card, _events, _bad in arms]
    hardened_events = arms[1][1]
    bad_core_id = arms[0][2]

    trip_events = [
        e for e in hardened_events if e.kind is EventKind.BREAKER_TRIP
    ]
    escape_reduction = (
        math.inf if cards[1].escape_rate == 0.0
        else cards[0].escape_rate / cards[1].escape_rate
    )
    p99_cost = cards[1].p99_latency_ms / max(cards[0].p99_latency_ms, 1e-9)
    goodput_cost = (
        max(cards[0].throughput_per_tick, 1e-9)
        / max(cards[1].goodput_per_tick, 1e-9)
    )
    q_breaker = cards[1].quarantine_tick.get(bad_core_id)
    q_validator = cards[2].quarantine_tick.get(bad_core_id)

    rendered = render_table(
        ["config", "escape", "avail", "p99 ms", "goodput/tick",
         "caught", "trips", "quarantined"],
        [card.summary_row() for card in cards],
        title=f"E15: serving under CEE ({ticks} ticks, chaos on)",
    ) + (
        f"\nescape-rate reduction (hardened): "
        + ("inf" if math.isinf(escape_reduction)
           else f"{escape_reduction:.0f}x")
        + f"; p99 cost {p99_cost:.2f}x, goodput cost {goodput_cost:.2f}x"
        + f"\nbad core {bad_core_id} quarantined at tick "
        + f"{q_breaker} (breaker) vs {q_validator} (validation signals only)"
        + _detection_latency_line("hardened", cards[1].detection_latency_ms)
    )
    return {
        "unhardened": cards[0],
        "hardened": cards[1],
        "validator_only": cards[2],
        "bad_core_id": bad_core_id,
        "escape_rate_unhardened": cards[0].escape_rate,
        "escape_rate_hardened": cards[1].escape_rate,
        "escape_reduction": escape_reduction,
        "p99_cost": p99_cost,
        "goodput_cost": goodput_cost,
        "breaker_trip_events": len(trip_events),
        "quarantine_tick_breaker": q_breaker,
        "quarantine_tick_validator_only": q_validator,
        "detection_latency_hardened": latency_percentiles(
            cards[1].detection_latency_ms, "corrupt_to_quarantine_ms"
        ),
        "hardened_events": hardened_events,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E16 — replicated storage under CEE: the durable-path chaos campaign
# ---------------------------------------------------------------------

def run_storage_under_cee(
    ticks: int = 600, seed: int = 0, workers: int | None = None
) -> dict:
    """E16: corruption-tolerant replicated storage vs a trusting one.

    Five configurations run the *same* chaos script (late-onset defect
    activation on one replica core, that replica crashing onto a WAL
    full of corrupt records, a healthy-replica crash with a torn tail,
    a machine-check burst, a write burst) on identically-seeded fleets:

    - **unprotected** — replicate and trust: no WAL, read-one, decrypt
      on the replica's own core, no background repair;
    - **quorum-only** — WAL + quorum writes + voted reads +
      encrypt-verify, but read-repair is the only healing;
    - **no-encrypt-verify** — full stack minus the decrypt-elsewhere
      check: the ablation that brings back the §5.2 unrecoverable
      loss, because a mis-encrypted write replicates *identically* to
      every replica and the vote agrees on garbage;
    - **generic-weights** — full stack, but storage suspicion events
      weighted like any other signal (quarantine-acceleration
      ablation);
    - **protected** — WAL + quorum + scrub + anti-entropy + dedicated
      suspicion weights.

    Expected shape: the protected escape rate drops ≥10×, the
    unrecoverable-loss rate drops to zero, write amplification stays
    under 3× the baseline's, and dedicated storage weights quarantine
    the defective core earlier than generic ones.  The baseline shows
    the dual failure: its only signal is the machine-check burst on a
    *healthy* replica, so it tends to quarantine the noisy innocent
    core (or nobody) while the silent corruptor keeps serving.
    """
    campaign_fn = functools.partial(
        campaign_arm,
        experiment_id="E16",
        seed=seed,
        ticks=ticks,
    )
    arms = run_tasks(
        campaign_fn,
        (
            "unprotected", "quorum_only", "no_encrypt_verify",
            "generic_weights", "protected",
        ),
        workers=workers,
    )
    cards = [card for card, _events, _bad in arms]
    protected_events = arms[4][1]
    bad_core_id = arms[0][2]

    base, full = cards[0], cards[4]
    escape_reduction = (
        math.inf if full.escape_rate == 0.0
        else base.escape_rate / full.escape_rate
    )
    amp_cost = (
        full.write_amplification / max(base.write_amplification, 1e-9)
    )
    q_dedicated = full.quarantine_tick.get(bad_core_id)
    q_generic = cards[3].quarantine_tick.get(bad_core_id)
    base_wrongly_quarantined = sorted(
        core_id for core_id in base.quarantine_tick
        if core_id != bad_core_id
    )

    rendered = render_table(
        ["config", "escape", "unrecov", "avail", "write amp",
         "repair ms", "caught", "repairs", "quarantined"],
        [card.summary_row() for card in cards],
        title=f"E16: replicated storage under CEE ({ticks} ticks, chaos on)",
    ) + (
        "\nescape-rate reduction (protected): "
        + ("inf" if math.isinf(escape_reduction)
           else f"{escape_reduction:.0f}x")
        + f"; unrecoverable {base.unrecoverable_keys} -> "
        + f"{full.unrecoverable_keys} keys; write-amp cost {amp_cost:.2f}x"
        + f"\nbad core {bad_core_id} quarantined at tick {q_dedicated} "
        + f"(dedicated weights) vs {q_generic} (generic weights)"
        + (
            "\nbaseline quarantined only innocent cores: "
            + ", ".join(base_wrongly_quarantined)
            if base_wrongly_quarantined else ""
        )
        + _detection_latency_line("protected", full.detection_latency_ms)
    )
    return {
        "unprotected": base,
        "quorum_only": cards[1],
        "no_encrypt_verify": cards[2],
        "generic_weights": cards[3],
        "protected": full,
        "bad_core_id": bad_core_id,
        "escape_rate_unprotected": base.escape_rate,
        "escape_rate_protected": full.escape_rate,
        "escape_reduction": escape_reduction,
        "unrecoverable_unprotected": base.unrecoverable_keys,
        "unrecoverable_no_verify": cards[2].unrecoverable_keys,
        "unrecoverable_protected": full.unrecoverable_keys,
        "write_amp_cost": amp_cost,
        "quarantine_tick_dedicated": q_dedicated,
        "quarantine_tick_generic": q_generic,
        "detection_latency_protected": latency_percentiles(
            full.detection_latency_ms, "corrupt_to_quarantine_ms"
        ),
        "protected_events": protected_events,
        "rendered": rendered,
    }


def run_grid(
    cell_fn: Callable[[tuple], Any],
    axes: tuple[tuple, ...],
    workers: int | None = None,
) -> dict:
    """Run ``cell_fn`` over the product of ``axes`` (fanned out over
    ``workers``) and nest the results as ``grid[a][b]…`` in axis order,
    float coordinates keyed ``f"{value:g}"``.  ``cell_fn``'s results
    must be picklable; insertion order is the product order, so walking
    the grid walks the axes."""
    cells = list(itertools.product(*axes))
    leaves = run_tasks(cell_fn, cells, workers=workers)
    grid: dict = {}
    for cell, leaf in zip(cells, leaves):
        *path, last = (c if isinstance(c, str) else f"{c:g}" for c in cell)
        node = grid
        for key in path:
            node = node.setdefault(key, {})
        node[last] = leaf
    return grid


# ---------------------------------------------------------------------
# E17 — serve at scale: sharded cluster across a prevalence × spend grid
# ---------------------------------------------------------------------

#: the E17 mitigation-spend ladder, cheapest first
SCALE_ARMS: tuple[str, ...] = ("baseline", "retries_breakers", "full")


def _scale_cell(
    cell: tuple[float, str], *, seed: int, ticks: int
) -> tuple["ScaleScorecard", int]:
    """One (prevalence, hardening) E17 cell of :func:`campaign_arm`:
    its scorecard and the fleet's bad-core count."""
    prevalence, arm_name = cell
    card, _events, bad = campaign_arm(
        arm_name, experiment_id="E17", seed=seed,
        fleet=dict(prevalence=prevalence), ticks=ticks,
    )
    return card, len(bad)


def run_serve_at_scale(
    ticks: int = 600,
    prevalences: tuple[float, ...] = (0.1, 0.2, 0.4),
    seed: int = 0,
    workers: int | None = None,
) -> dict:
    """E17: the sharded serve-at-scale runtime across a mercurial-
    prevalence × mitigation-spend grid.

    Open-loop ramped traffic (user cohorts, stable route keys) drives a
    consistent-hash sharded cluster through the E17 chaos script —
    staggered multi-core defect activation, a whole-shard crash, a
    breaker storm, a traffic burst — at each prevalence level, under
    three spend levels:

    - **baseline** — round-robin, trust every response;
    - **retries_breakers** — e2e validation, token-bucket retry
      budgets with backoff + jitter, per-shard circuit breakers;
    - **full** — adds tail hedging, the shed → serve-stale →
      fail-closed degradation ladder, and utilization autoscaling.

    Expected shape: at every prevalence, hedging + budgeted retries cut
    user-visible corruption (escape rate) versus baseline, with the
    latency bill quantified at p99/p99.9.
    """
    cells = run_grid(
        functools.partial(_scale_cell, seed=seed, ticks=ticks),
        (prevalences, SCALE_ARMS),
        workers,
    )

    grid: dict[str, dict] = {}
    rows = []
    comparisons: dict[str, dict] = {}
    for key, arms in cells.items():
        cards = grid[key] = {arm: card for arm, (card, _) in arms.items()}
        rows += [[key] + card.summary_row() for card in cards.values()]
        base, full = cards["baseline"], cards["full"]
        comparisons[key] = {
            "n_bad_cores": arms["baseline"][1],
            "escape_rate_baseline": base.escape_rate,
            "escape_rate_retries_breakers":
                cards["retries_breakers"].escape_rate,
            "escape_rate_full": full.escape_rate,
            "escape_reduction": (
                math.inf if full.escape_rate == 0.0
                else base.escape_rate / full.escape_rate
            ),
            "p99_cost": full.p99_latency_ms / max(base.p99_latency_ms, 1e-9),
            "p999_cost":
                full.p999_latency_ms / max(base.p999_latency_ms, 1e-9),
            "availability_baseline": base.availability,
            "availability_full": full.availability,
        }

    rendered = render_table(
        ["prev", "config", "escape", "avail", "p50", "p99 ms", "p99.9 ms",
         "stale", "failclosed", "hedges", "budget-exh", "quarantined"],
        rows,
        title=f"E17: serve at scale ({ticks} ticks, chaos on)",
    ) + "".join(
        f"\nprev {key}: escape "
        f"{comp['escape_rate_baseline']:.3%} -> "
        f"{comp['escape_rate_full']:.3%} "
        f"(p99 cost {comp['p99_cost']:.2f}x, "
        f"p99.9 cost {comp['p999_cost']:.2f}x, "
        f"{comp['n_bad_cores']} bad cores)"
        for key, comp in comparisons.items()
    )
    return {
        "grid": grid,
        "comparisons": comparisons,
        "prevalences": [f"{p:g}" for p in prevalences],
        "arms": list(SCALE_ARMS),
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E18 — instruction-level checking: cost vs coverage across arms
# ---------------------------------------------------------------------

def _instrcheck_cell(
    cell: tuple[float, str, float], *, units: int, seed: int
) -> tuple[InstrCheckScorecard, int]:
    """One (prevalence, arm, sampling rate) E18 cell of
    :func:`campaign_arm`: its scorecard and the fleet's bad-core
    count."""
    prevalence, arm, rate = cell
    card, _events, bad = campaign_arm(
        arm, experiment_id="E18", seed=seed,
        fleet=dict(prevalence=prevalence), units=units, sample_rate=rate,
        # The screening arm spends its budget as battery frequency, not
        # per-op duplication: a higher "rate" screens more often.
        screen_interval_ticks=max(1, round(1.0 / max(rate, 1e-9))),
    )
    return card, len(bad)


#: E18's grid axes: mercurial-core prevalence, per-op sampling rate
INSTRCHECK_PREVALENCES: tuple[float, ...] = (0.125, 0.25)
INSTRCHECK_RATES: tuple[float, ...] = (0.1, 0.33, 1.0)


def run_instrcheck_grid(
    units: int = 320, seed: int = 0, workers: int | None = None
) -> dict:
    """E18: instruction-level checking arms on a cost-vs-coverage grid.

    Races the three literature arms (ITHICA same-core duplication, MEEK
    heterogeneous checker pairing, RepTFD checkpointed replay) plus the
    two in-repo reference points (E9 periodic screening, E11 end-to-end
    checks) across a sampling-rate × defect-prevalence grid, measuring
    each cell's slowdown factor against the fraction of CEE-affected
    work units caught before propagation.

    Expected shape: ITHICA is the cheap arm and looks perfect while the
    only bad core is *probabilistic*, then collapses at the prevalence
    step that introduces a deterministic operand-pattern core (both of
    its executions corrupt identically — the §2 self-inverting AES
    story).  MEEK and RepTFD pay a second core but catch deterministic
    CEEs; MEEK's bounded check-lag queue starts dropping coverage at
    full sampling, and RepTFD is the only arm that *corrects* what it
    catches (rollback re-run).  Screening catches cores, never
    in-flight results — its pre-propagation coverage is honestly ~0.
    """
    cells = run_grid(
        functools.partial(_instrcheck_cell, units=units, seed=seed),
        (INSTRCHECK_PREVALENCES, INSTRCHECK_ARMS, INSTRCHECK_RATES),
        workers,
    )

    grid: dict[str, dict] = {}
    rows = []
    comparisons: dict[str, dict] = {}
    full_rate = f"{INSTRCHECK_RATES[-1]:g}"
    for key, arm_cells in cells.items():
        arms = grid[key] = {
            arm: {rate: card for rate, (card, _) in rates.items()}
            for arm, rates in arm_cells.items()
        }
        rows += [
            [key] + card.summary_row()
            for cards in arms.values() for card in cards.values()
        ]
        full = {arm: cards[full_rate] for arm, cards in arms.items()}
        comparisons[key] = {
            "n_bad_cores": arm_cells["meek"][full_rate][1],
            "coverage_at_full_rate": {
                arm: card.coverage for arm, card in full.items()
            },
            "slowdown_at_full_rate": {
                arm: card.slowdown_factor for arm, card in full.items()
            },
            "meek_lag_drops_at_full_rate": full["meek"].lag_drops,
            "reptfd_corrected": full["reptfd"].flagged_clean_units,
        }

    rendered = render_table(
        ["prev", "arm", "rate", "slowdown", "coverage", "caught",
         "escaped", "lagdrops", "quarantined"],
        rows,
        title=f"E18: instruction-level checking ({units} units/cell)",
    ) + "".join(
        f"\nprev {key}: full-rate coverage "
        + ", ".join(
            f"{arm} {comp['coverage_at_full_rate'][arm]:.0%}"
            for arm in INSTRCHECK_ARMS
        )
        + f" ({comp['n_bad_cores']} bad cores)"
        for key, comp in comparisons.items()
    )
    return {
        "grid": grid,
        "comparisons": comparisons,
        "prevalences": [f"{p:g}" for p in INSTRCHECK_PREVALENCES],
        "arms": list(INSTRCHECK_ARMS),
        "rates": [f"{r:g}" for r in INSTRCHECK_RATES],
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# E19 — fleet-scale proxy screening: budget × prevalence × corpus grid
# ---------------------------------------------------------------------

#: the two corpus arms E19 races (SiliFuzz question: what does
#: distillation cost in detection power?)
FLEETSCREEN_CORPORA: tuple[str, ...] = ("full", "distilled")


def _fleetscreen_battery(corpus_kind: str) -> DistilledBattery:
    """Build the battery for one E19 corpus arm."""
    corpus = TestCorpus.standard()
    if corpus_kind == "full":
        return full_battery(corpus)
    if corpus_kind == "distilled":
        return distill(corpus)
    raise ValueError(f"unknown corpus arm {corpus_kind!r}")


def _fleetscreen_cell(
    cell: tuple[float, float, str],
    *,
    n_machines: int,
    horizon_days: float,
    seed: int,
) -> dict:
    """Run one (budget, prevalence scale, corpus) E19 cell.

    The fleet seed depends only on the campaign seed and the prevalence
    scale, so both corpus arms at every budget face the *identical*
    mercurial cores, and a cell's summary is byte-identical regardless
    of which worker runs it.
    """
    budget, prevalence_scale, corpus_kind = cell
    products = tuple(
        dataclasses.replace(
            p, core_prevalence=min(1.0, p.core_prevalence * prevalence_scale)
        )
        for p in DEFAULT_PRODUCTS
    )
    builder = FleetBuilder(
        products=products,
        seed=seed + 7 + int(prevalence_scale),
        deployment_window=(-400.0, 0.0),
    )
    columns = builder.build_columns(n_machines)
    battery = _fleetscreen_battery(corpus_kind)
    screener = RideAlongScreener(
        battery, RideAlongConfig(budget_fraction=budget)
    )
    campaign = RideAlongCampaign(columns, screener, seed=seed + 3)
    report = campaign.run(horizon_days)
    return {
        "n_cores": columns.n_cores,
        "n_mercurial": columns.n_mercurial,
        "n_active": report.n_active,
        "detected": len(report.detected),
        "detected_fraction": report.detected_fraction,
        "median_latency_days": report.median_latency_days,
        "escaped_corruptions": report.escaped_corruptions,
        "machine_seconds": report.machine_seconds,
        "budget_machine_seconds": report.budget_machine_seconds,
        "skipped_slots": report.skipped_slots,
        "n_confessions": report.n_confessions,
        "battery_ops": battery.total_ops,
        "battery_coverage": battery.coverage_fraction,
        "battery_tests": len(battery.tests),
    }


#: E19's grid axes: screening budget (fraction of a day's
#: machine-seconds), mercurial-prevalence densification
FLEETSCREEN_BUDGETS: tuple[float, ...] = (2.5e-7, 2e-6, 2e-5)
FLEETSCREEN_PREVALENCE_SCALES: tuple[float, ...] = (200.0, 800.0)


def run_fleetscreen_grid(
    n_machines: int = 120,
    horizon_days: float = 120.0,
    seed: int = 0,
    workers: int | None = None,
) -> dict:
    """E19: fleet-scale proxy screening across a budget × prevalence ×
    corpus grid, priced against E9's periodic-screening baseline.

    Each cell runs a :class:`~repro.detection.fleetscreen.RideAlongCampaign`:
    a day-stepped screening-only detection loop where spare scheduler
    slots get the battery under a machine-second budget and confessions
    drive the weighted quarantine loop.  The grid measures
    time-to-detection (activation → quarantine) and
    escapes-before-detection (expected corrupt results leaked by
    active, unquarantined defects) as the budget, the defect
    prevalence, and the corpus (full vs SiliFuzz-distilled) vary.

    Expected shape: the distilled battery reaches ≥90% of the full
    corpus's unit coverage at a fraction of its run cost, so under a
    *binding* budget it screens many more cores per day and detects at
    least as many defects — the SiliFuzz trade in one grid.  (Budgets
    are tiny fractions because screening genuinely is: one full-corpus
    fleet sweep costs ~7×10⁻⁶ of a day's machine-seconds.)  More
    budget buys detection; the E9 frontier rows anchor what
    drain-based periodic policies pay for comparable latency.
    """
    grid = run_grid(
        functools.partial(
            _fleetscreen_cell,
            n_machines=n_machines, horizon_days=horizon_days, seed=seed,
        ),
        (FLEETSCREEN_BUDGETS, FLEETSCREEN_PREVALENCE_SCALES,
         FLEETSCREEN_CORPORA),
        workers,
    )

    # E9 anchor: the periodic online/offline policy frontier over the
    # same defect-rate ensemble E9 samples.
    rng = np.random.default_rng(seed + 29)
    rates = [float(10.0 ** rng.uniform(-8.0, -3.0)) for _ in range(120)]
    baseline_policies = [
        ScreeningPolicy(period_days=7.0, corpus_ops=2e5, env_boost=1.0),
        ScreeningPolicy(period_days=90.0, corpus_ops=2e6, env_boost=6.0,
                        drain_coreseconds=120.0),
    ]
    baseline_labels = ["online weekly (E9)", "offline quarterly (E9)"]
    baseline = policy_frontier(baseline_policies, rates)

    rows = [
        [
            budget, scale, corpus_kind,
            f"{cell['detected']}/{cell['n_active']}",
            f"{cell['median_latency_days']:.1f}",
            f"{cell['escaped_corruptions']:.1f}",
            f"{cell['machine_seconds']:.0f}",
            f"{cell['skipped_slots']}",
        ]
        for budget, scales in grid.items()
        for scale, corpora in scales.items()
        for corpus_kind, cell in corpora.items()
    ]
    sample = grid[f"{FLEETSCREEN_BUDGETS[0]:g}"][
        f"{FLEETSCREEN_PREVALENCE_SCALES[0]:g}"
    ]

    rendered = render_table(
        ["budget", "prev×", "corpus", "detected", "median days",
         "escapes", "machine-s", "skipped"],
        rows,
        title=f"E19: fleet proxy screening ({n_machines} machines, "
              f"{horizon_days:g}d horizon)",
    ) + "".join(
        f"\n{label}: median {row['median_days_to_detect']:.1f}d to detect, "
        f"cost fraction {row['compute_cost_fraction']:.2e}"
        for label, row in zip(baseline_labels, baseline)
    ) + (
        f"\ndistilled battery: {sample['distilled']['battery_ops']} ops vs "
        f"{sample['full']['battery_ops']} full "
        f"({sample['distilled']['battery_coverage']:.0%} unit coverage)"
    )
    return {
        "grid": grid,
        "budgets": [f"{b:g}" for b in FLEETSCREEN_BUDGETS],
        "prevalence_scales": [
            f"{s:g}" for s in FLEETSCREEN_PREVALENCE_SCALES
        ],
        "corpora": list(FLEETSCREEN_CORPORA),
        "baseline": baseline,
        "baseline_labels": baseline_labels,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------
# The registry: every experiment is one row, every paper claim one
# named predicate with its tolerance written out
# ---------------------------------------------------------------------

def _rises(series: list[tuple[float, float]]) -> bool:
    """Mean of the last third ≥ mean of the first (robust to bucket noise)."""
    values = [value for _, value in series]
    third = max(1, len(values) // 3)
    return sum(values[-third:]) / third >= sum(values[:third]) / third


def _frontier(r: dict, label: str, key: str) -> float:
    return dict(zip(r["labels"], r["frontier"]))[label][key]


def _baseline_escapes_grow(r: dict) -> bool:
    escapes = [
        cards["baseline"].corrupt_escapes for cards in r["grid"].values()
    ]
    return min(escapes) > 0 and escapes == sorted(escapes)


def _defenses_engaged(r: dict) -> bool:
    full = [cards["full"] for cards in r["grid"].values()]
    return (
        any(card.hedges > 0 for card in full)
        and any(card.degraded_ticks for card in full)
        and all(card.quarantine_tick for card in full)
    )


def _at_full_rate(r: dict, prevalence: int, arm: str) -> InstrCheckScorecard:
    """E18's ``arm`` cell at the highest sampling rate; ``prevalence``
    indexes the axis (0 = probabilistic defects only, -1 = highest)."""
    return r["grid"][r["prevalences"][prevalence]][arm][r["rates"][-1]]


def _replay_corrects(r: dict) -> bool:
    card = _at_full_rate(r, -1, "reptfd")
    return (
        card.cees_escaped == 0
        and card.flagged_clean_units > 0
        and card.replays > 0
    )


def _slowdowns(r: dict) -> list[list[float]]:
    """Per (prevalence, arm) of E18: slowdown factors by rising rate."""
    return [
        [card.slowdown_factor for card in cards.values()]
        for arms in r["grid"].values() for cards in arms.values()
    ]


def _at_budget(r: dict, budget: int) -> list[dict]:
    """E19's per-prevalence ``{corpus: cell}`` dicts at one end of the
    budget axis (0 = tightest, -1 = widest)."""
    return list(r["grid"][r["budgets"][budget]].values())


def _distilled_cheaper(r: dict) -> bool:
    cell = _at_budget(r, 0)[0]
    return (
        cell["distilled"]["battery_coverage"] >= 0.9
        and cell["distilled"]["battery_ops"] < cell["full"]["battery_ops"]
    )


_FIG1 = "Fig. 1: automatically-reported rate gradually increasing"
_INCIDENCE = '§1 "a few mercurial cores per several thousand machines"'
_HALF = (
    '§6 "roughly half of these human-identified suspects are actually proven"'
)

#: the paper experiments; ``EXPERIMENTS`` adds the ablation rows
_ROWS: dict[str, Experiment] = {
    "F1": Experiment(
        "Fig. 1: reported CEE rates (normalized)",
        "Fig. 1: user-reported rate roughly flat, automatically-reported "
        "rate gradually increasing",
        run_fig1,
        dict(n_machines=2000, horizon_days=360.0, warmup_days=120.0,
             prevalence_scale=16.0),
        (
            Claim("automated_reports_exist", _FIG1,
                  lambda r: any(v > 0 for _, v in r["auto_series"])),
            Claim("automated_series_rises", _FIG1,
                  lambda r: _rises(r["auto_series"])),
            Claim("automated_slope_nonnegative", _FIG1,
                  lambda r: r["auto_slope"] >= 0.0),
        ),
    ),
    "E1": Experiment(
        "Incidence per 1000 machines", _INCIDENCE,
        run_incidence, dict(n_machines=3000, horizon_days=120.0),
        (
            Claim("a_few_per_several_thousand", _INCIDENCE,
                  lambda r: 0.1 <= r["truth_per_kmachine"] <= 5.0),
            Claim("detection_never_exceeds_truth", "§4 incidence metrics",
                  lambda r: r["detected_per_kmachine"]
                  <= r["truth_per_kmachine"]),
            Claim("flagged_cores_are_precise", "§6 detection precision",
                  lambda r: r["detected_per_kmachine"] == 0
                  or r["precision"] >= 0.8),
        ),
    ),
    "E2": Experiment(
        "Symptom classes in risk order",
        '§2 symptom classes, "in increasing order of risk"',
        run_symptoms, dict(n_cores=12),
        (
            Claim("silent_wrong_answers_occur",
                  '§2 "wrong answers that are never detected"',
                  lambda r: r["counts"][Symptom.WRONG_ANSWER_UNDETECTED] > 0),
            # 12 smoke-scale cores only ever show the silent class
            Claim("several_symptom_classes_from_20_cores_up",
                  "§2 symptom classes",
                  lambda r: len(r["per_core_rates"]) < 20
                  or sum(n > 0 for n in r["counts"].values()) >= 2),
            Claim("risk_ranks_listed", '§2 "in increasing order of risk"',
                  lambda r: "(1)" in r["rendered"] and "(4)" in r["rendered"]),
        ),
    ),
    "E3": Experiment(
        "Self-inverting AES case study",
        '§2 deterministic AES mis-computation, "self-inverting"',
        run_aes_case, {},
        (
            Claim("ciphertext_differs", "§2 AES mis-computation",
                  lambda r: r["ciphertext_differs"]),
            Claim("same_core_roundtrip_is_identity",
                  '§2 "encrypting and decrypting on the same core yielded '
                  'the identity function"',
                  lambda r: r["same_core_roundtrip_identity"]),
            Claim("decrypt_elsewhere_is_gibberish",
                  '§2 "decryption elsewhere yielded gibberish"',
                  lambda r: r["cross_core_garbage"]),
            Claim("corpus_cross_check_catches", "§6 screening corpus",
                  lambda r: r["corpus_catches"]),
            Claim("cross_core_selfcheck_catches", "§7 self-checking libraries",
                  lambda r: r["checked_cipher_catches"]),
        ),
    ),
    "E4": Experiment(
        "Corruption propagation case studies",
        "§2 bit-flips at a particular position; corrupted database "
        "index; garbage collection losing live data",
        run_propagation, {},
        (
            Claim("flips_at_one_bit_position",
                  '§2 "repeated bit-flips in strings, at a particular bit '
                  'position"',
                  lambda r: r["n_flips"] > 0
                  and len(r["flip_positions"]) == 1),
            Claim("only_defective_replica_errs",
                  '§2 database index corruption, "depending on which '
                  'replica (core) serves them"',
                  lambda r: r["replica_errors"][1] > 0.0
                  and r["replica_errors"][0] == r["replica_errors"][2] == 0.0),
            Claim("gc_loses_live_data",
                  '§2 garbage collection "causing live data to be lost"',
                  lambda r: r["gc_lost_blocks"] > 0
                  and r["late_detected_losses"] > 0),
        ),
    ),
    "E5": Experiment(
        "DMR/TMR cost factors",
        '§3 "a factor of two of extra work" to detect, "triple work" to '
        "correct",
        run_redundancy_cost, {},
        (
            Claim("detection_costs_two", '§3 "factor of two"',
                  lambda r: 1.9 <= r["dmr_factor"] <= 2.1),
            Claim("correction_costs_three", '§3 "triple work"',
                  lambda r: 2.9 <= r["tmr_factor"] <= 3.1),
        ),
    ),
    "E6": Experiment(
        "Rate heterogeneity (orders of magnitude)",
        '§2 "corruption rates vary by many orders of magnitude"',
        run_rate_spread, dict(n_defects=80),
        (
            Claim("many_orders_of_magnitude", '§2 "many orders of magnitude"',
                  lambda r: r["spread_orders"] >= 3.0),
        ),
    ),
    "E7": Experiment(
        "f/V/T sensitivity and shared logic",
        "§5 frequency / voltage / temperature sensitivity, the "
        "lower-frequency-worse anomaly, shared copy/vector logic",
        run_fvt, {},
        (
            Claim("faster_clock_more_errors", "§5 frequency sensitivity",
                  lambda r: r["freq_rates"] == sorted(r["freq_rates"])),
            Claim("lower_frequency_worse_anomaly",
                  '§5 "lower frequency sometimes (surprisingly) increases '
                  'the failure rate"',
                  lambda r: r["volt_rates"]
                  == sorted(r["volt_rates"], reverse=True)),
            Claim("shared_logic_hits_copy_and_vector",
                  "§5 data-copy and vector operations share logic",
                  lambda r: r["copy_corruptions"] > 0
                  and r["vector_corruptions"] > 0),
        ),
    ),
    "E8": Experiment(
        "Human-triage confirmation rate", _HALF,
        run_triage, dict(n_incidents=80),
        (
            Claim("roughly_half_confirmed", _HALF,
                  lambda r: 0.3 <= r["confirmed_fraction"] <= 0.7),
            Claim("the_rest_is_a_mix",
                  '§6 "the other half is a mix of false accusations and '
                  'limited reproducibility"',
                  lambda r: r["fractions"]["false_accusation"] > 0
                  and r["fractions"]["unreproducible"] > 0),
        ),
    ),
    "E9": Experiment(
        "Online vs offline screening tradeoff",
        "§6 offline vs online screening: coverage, time to detect, cost",
        run_screening_tradeoff, dict(n_rates=40),
        (
            Claim("offline_catches_what_online_misses",
                  "§6 offline screening can vary f/V/T; online cannot",
                  lambda r: r["offline_caught_gated"]
                  and not r["online_caught_gated"]),
            Claim("faster_cadence_detects_sooner", "§6 screening frequency",
                  lambda r: _frontier(
                      r, "online daily", "median_days_to_detect")
                  < _frontier(r, "online weekly", "median_days_to_detect")),
            Claim("faster_cadence_costs_more", "§6 cost of screening",
                  lambda r: _frontier(
                      r, "online daily", "compute_cost_fraction")
                  > _frontier(r, "online weekly", "compute_cost_fraction")),
        ),
    ),
    "E10": Experiment(
        "Core vs machine isolation",
        "§6.1 isolate the core, not the machine; safe tasks on "
        "quarantined cores",
        run_isolation, dict(n_machines=20),
        (
            Claim("core_quarantine_strands_far_less", "§6.1 core isolation",
                  lambda r: r["core_stranded"] < r["machine_stranded"] / 5),
            Claim("machine_quarantine_strands_healthy_cores",
                  "§6.1 cost of removing the whole machine",
                  lambda r: r["machine_healthy_stranded"] > 0),
            Claim("safe_tasks_reclaim_capacity",
                  "§6.1 run tasks that avoid the defective unit",
                  lambda r: r["safe_task_placements"] > 0),
        ),
    ),
    "E11": Experiment(
        "Mitigation ladder effectiveness",
        "§7 tolerating mercurial cores: redundant execution",
        run_mitigation_ladder, dict(n_units=15),
        (
            Claim("unprotected_work_corrupts", "§2 silent wrong answers",
                  lambda r: r["escaped_unprotected"] > 0),
            Claim("redundancy_eliminates_escapes", "§7 DMR / TMR",
                  lambda r: r["escaped_dmr"] == 0 and r["escaped_tmr"] == 0),
        ),
    ),
    "E12": Experiment(
        "ABFT / resilient algorithms",
        "§7 algorithm-based fault tolerance; SDC-resilient sorting and "
        "factorization [11, 27]",
        run_abft, {},
        (
            Claim("vanilla_matmul_goes_wrong", "§7 unprotected algorithms",
                  lambda r: r["vanilla_wrong"] > 0),
            Claim("abft_never_silently_wrong", "§7 ABFT",
                  lambda r: r["abft_silent_wrong"] == 0),
            Claim("resilient_sort_survives_a_bad_comparator",
                  "§7 resilient sorting [11]",
                  lambda r: r["plain_sort_wrong"] and r["resilient_sort_ok"]),
            Claim("checksummed_lu_detects", "§7 checksummed factorization [27]",
                  lambda r: r["lu_detections"] > 0),
        ),
    ),
    "E13": Experiment(
        "Report concentration analysis",
        "§6 suspect reports concentrated on one core are grounds for "
        "quarantine; evenly spread reports are not",
        run_report_concentration, {},
        (
            Claim("concentrated_core_is_top_suspect", "§6 report concentration",
                  lambda r: r["top_suspect"] == "m0042/c07"),
            Claim("and_is_a_quarantine_candidate", "§6 grounds for quarantine",
                  lambda r: "m0042/c07" in r["candidates"]),
        ),
    ),
    "E14": Experiment(
        "Aging: onset and escalation",
        '§2 "often get worse with time"; §4 age until onset',
        run_aging, {},
        (
            Claim("half_of_onsets_within_a_year", "§4 age until onset",
                  lambda r: 0.4 <= r["model_cdf_365"] <= 0.6),
            Claim("rates_escalate_after_onset", '§2 "often get worse with time"',
                  lambda r: r["escalation"] == sorted(r["escalation"])),
            Claim("some_onsets_are_later_than_two_years", "§4 latent defects",
                  lambda r: 0.0 < r["censored_fraction_730"] < 0.6),
        ),
    ),
    "E15": Experiment(
        "Serving under CEE: chaos campaign",
        "§7 tolerating mercurial cores in a serving path; §2 silent "
        "wrong answers",
        run_serving_under_cee, dict(ticks=250),
        (
            Claim("corrupt_responses_escape_the_naive_service",
                  "§2 silent wrong answers",
                  lambda r: r["escape_rate_unhardened"] > 0.0),
            Claim("hardening_cuts_escapes_tenfold", "§7 end-to-end checks",
                  lambda r: r["escape_rate_hardened"]
                  <= r["escape_rate_unhardened"] / 10.0),
            Claim("robustness_tax_under_3x", "§3 the redundancy bill",
                  lambda r: r["p99_cost"] < 3.0 and r["goodput_cost"] < 3.0),
            Claim("breakers_trip_on_the_bad_core", "§6 automated signals",
                  lambda r: any(
                      e.kind is EventKind.BREAKER_TRIP
                      and e.core_id == r["bad_core_id"]
                      for e in r["hardened_events"])),
            Claim("breakers_accelerate_quarantine", "§6 time to quarantine",
                  lambda r: None not in (
                      r["quarantine_tick_breaker"],
                      r["quarantine_tick_validator_only"])
                  and r["quarantine_tick_breaker"]
                  < r["quarantine_tick_validator_only"]),
        ),
    ),
    "E16": Experiment(
        "Storage under CEE: durable-path chaos",
        "§5.2 unrecoverable mis-encryption; §2 corrupted database "
        "index; §7 durable-path defenses",
        run_storage_under_cee, dict(ticks=200),
        (
            Claim("corruption_reaches_clients_of_the_trusting_store",
                  "§2 silent wrong answers",
                  lambda r: r["escape_rate_unprotected"] > 0.0),
            Claim("full_stack_cuts_escapes_tenfold", "§7 durable-path defenses",
                  lambda r: r["escape_rate_protected"]
                  <= r["escape_rate_unprotected"] / 10.0),
            Claim("acked_keys_lost_without_defenses_none_with",
                  "§5.2 unrecoverable mis-encryption",
                  lambda r: r["unrecoverable_unprotected"] > 0
                  and r["unrecoverable_protected"] == 0),
            Claim("write_amplification_under_3x", "§3 the redundancy bill",
                  lambda r: r["write_amp_cost"] < 3.0),
            Claim("encrypt_verify_fingers_the_bad_core",
                  "§5.2 verify after encrypt",
                  lambda r: any(
                      e.kind is EventKind.ENCRYPT_VERIFY_FAIL
                      and e.core_id == r["bad_core_id"]
                      for e in r["protected_events"])),
            Claim("dedicated_weights_quarantine_no_later",
                  "§6 time to quarantine",
                  lambda r: None not in (
                      r["quarantine_tick_dedicated"],
                      r["quarantine_tick_generic"])
                  and r["quarantine_tick_dedicated"]
                  <= r["quarantine_tick_generic"]),
            Claim("trusting_baseline_never_fingers_the_bad_core",
                  "§2 silent corruption gives no signal",
                  lambda r: r["bad_core_id"]
                  not in r["unprotected"].quarantine_tick),
        ),
    ),
    "E17": Experiment(
        "Serve at scale: prevalence × mitigation-spend grid",
        "§1/§4 fleet-scale prevalence; §6/§7 mitigation spend as a dial",
        run_serve_at_scale, dict(ticks=200),
        (
            Claim("baseline_corruption_grows_with_prevalence",
                  "§1 prevalence drives user-visible corruption",
                  _baseline_escapes_grow),
            Claim("hardening_never_loses_to_baseline", "§7 mitigation spend",
                  lambda r: all(
                      c["escape_rate_full"] <= c["escape_rate_baseline"]
                      for c in r["comparisons"].values())),
            Claim("hardened_arms_hold_escapes_at_zero",
                  "§7 end-to-end checks, retries, hedging",
                  lambda r: all(
                      c["escape_rate_full"] == 0.0
                      and c["escape_rate_retries_breakers"] == 0.0
                      and c["escape_rate_baseline"] > 0.0
                      for c in r["comparisons"].values())),
            Claim("tail_latency_bill_under_3x", "§3 the redundancy bill",
                  lambda r: all(
                      c["p99_cost"] < 3.0 and c["p999_cost"] < 3.0
                      for c in r["comparisons"].values())),
            # the baseline's own "availability" counts the corrupt bytes
            # it served, so compare on ground truth
            Claim("full_stack_serves_more_correct_answers",
                  "§7 availability on ground truth, not on served bytes",
                  lambda r: all(
                      cards["full"].valid_ok / cards["full"].total_arrivals
                      > cards["baseline"].valid_ok
                      / cards["baseline"].total_arrivals
                      and cards["full"].answered_rate
                      > cards["baseline"].answered_rate
                      for cards in r["grid"].values())),
            Claim("hedging_degradation_and_quarantine_engaged",
                  "§7 the defenses actually fire under chaos",
                  _defenses_engaged),
        ),
    ),
    "E18": Experiment(
        "Instruction-level checking: cost vs coverage grid",
        "§6/§7 continuous instruction-level checking; §7 reliable-voter "
        "caveat; §2 deterministic defects",
        run_instrcheck_grid, dict(units=160),
        (
            Claim("cross_core_beats_same_core_duplication",
                  "§2 deterministic defects corrupt both executions alike",
                  lambda r: all(
                      _at_full_rate(r, -1, arm).coverage
                      > _at_full_rate(r, -1, "ithica").coverage
                      for arm in ("meek", "reptfd"))),
            Claim("checking_beats_screening_before_propagation",
                  "§6 screening catches cores, not in-flight results",
                  lambda r: all(
                      _at_full_rate(r, p, arm).coverage
                      >= _at_full_rate(r, p, "screen").coverage
                      for p in range(len(r["prevalences"]))
                      for arm in ("ithica", "meek", "reptfd", "e2e"))),
            Claim("same_core_duplication_collapses_on_deterministic_core",
                  "§2 the self-inverting AES story",
                  lambda r: _at_full_rate(r, 0, "ithica").coverage == 1.0
                  and _at_full_rate(r, -1, "ithica").coverage < 0.5
                  and _at_full_rate(r, -1, "ithica").cees_escaped > 0),
            Claim("replay_corrects_what_it_catches", "§7 checkpoint and retry",
                  _replay_corrects),
            Claim("checker_lag_queue_overruns_are_accounted",
                  "§7 coverage lost honestly, never silently",
                  lambda r: _at_full_rate(r, -1, "meek").lag_drops > 0),
            Claim("screening_quarantines_cores_but_catches_no_results",
                  "§6 screening",
                  lambda r: all(
                      _at_full_rate(r, p, "screen").cees_caught == 0
                      and _at_full_rate(r, p, "screen").quarantine_tick
                      for p in range(len(r["prevalences"])))),
            Claim("cost_rises_with_sampling_and_stays_under_tmr",
                  '§3 "triple work"',
                  lambda r: all(
                      s == sorted(s) and all(1.0 <= x < 3.0 for x in s)
                      for s in _slowdowns(r))),
        ),
    ),
    "E19": Experiment(
        "Fleet proxy screening: budget × prevalence × corpus grid",
        "§6 screening at scale; SiliFuzz distillation; ride-along SDC "
        "screening",
        run_fleetscreen_grid, dict(n_machines=60, horizon_days=60.0),
        (
            Claim("distilled_cheaper_at_equal_coverage",
                  "SiliFuzz: distillation keeps coverage at a fraction of "
                  "the cost",
                  _distilled_cheaper),
            Claim("distilled_detects_no_less",
                  "§6 a binding budget favours the cheaper battery",
                  lambda r: all(
                      cell["distilled"]["detected"] >= cell["full"]["detected"]
                      for cell in _at_budget(r, 0))),
            Claim("budget_buys_detection", "§6 cycles devoted to testing",
                  lambda r: all(
                      wide["distilled"]["detected"]
                      >= tight["distilled"]["detected"]
                      for tight, wide in zip(
                          _at_budget(r, 0), _at_budget(r, -1)))),
            Claim("budget_never_overspent", "§6 screening budget",
                  lambda r: all(
                      cell["machine_seconds"] <= cell["budget_machine_seconds"]
                      for corpora in _at_budget(r, 0)
                      for cell in corpora.values())),
            Claim("same_battery_at_every_budget", "§6 screening corpus",
                  lambda r: all(
                      tight[kind]["battery_ops"] == wide[kind]["battery_ops"]
                      for tight, wide in zip(
                          _at_budget(r, 0), _at_budget(r, -1))
                      for kind in tight)),
            Claim("tight_budget_is_binding", "§6 spare cycles are finite",
                  lambda r: all(
                      cell["full"]["skipped_slots"] > 0
                      for cell in _at_budget(r, 0))),
            Claim("priced_against_e9_periodic_policies", "§6 / E9 anchor",
                  lambda r: len(r["baseline"])
                  == len(r["baseline_labels"]) == 2),
        ),
    ),
}

# Imported last: the ablation runners build on ``Claim`` / ``Experiment``
# / ``_healthy`` above, and their rows complete the one registry.
from repro.analysis.ablations import ABLATIONS  # noqa: E402

#: registry mapping experiment id → row
EXPERIMENTS: dict[str, Experiment] = {**_ROWS, **ABLATIONS}
