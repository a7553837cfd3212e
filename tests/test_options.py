"""The option inventory: every knob a caller can set, pinned by name.

An option is a field of a ``*Config``, ``*Policy``, ``*Hardening`` or
``*Protections`` dataclass under ``src/repro``.  Each one is a
configuration some row, CLI flag, example or benchmark has to exercise,
or nobody measures it; a value nothing varies is a module constant
instead.  ``OPTIONS`` is the committed table, so adding (or removing)
an option shows up as an edit to it in the diff.

The options that survive are validated where a bad value would
otherwise run and return a plausible-looking result.
"""

import dataclasses
import importlib
import pkgutil
import re

import pytest

import repro
from repro.mitigation.instrcheck import InstrCheckConfig
from repro.serving import CampaignConfig, ScaleConfig
from repro.storage import StorageCampaignConfig

OPTIONS: dict[str, tuple[str, ...]] = {
    "repro.analysis.economics.ScreeningPolicy": (
        "period_days", "corpus_ops", "env_boost", "drain_coreseconds",
    ),
    "repro.core.policy.PolicyConfig": (
        "monitor_threshold", "retest_threshold", "quarantine_threshold",
        "require_confession_below", "machine_core_limit",
        "max_quarantined_fraction",
    ),
    "repro.detection.fleetscreen.RideAlongConfig": ("budget_fraction",),
    "repro.detection.offline.OfflineScreenerConfig": (
        "repetitions_per_point",
    ),
    "repro.detection.signals.SignalAnalyzerConfig": ("weights",),
    "repro.fleet.simulator.SimulatorConfig": (
        "horizon_days", "warmup_days", "exposed_ops_per_day",
        "p_selfcheck_surface", "p_crash_surface", "p_user_surface",
        "bg_crash_rate", "bg_user_rate", "online_corpus_ops",
        "offline_corpus_ops", "confession_corpus_ops", "policy",
    ),
    "repro.lint.engine.LintConfig": (
        "select", "wallclock_allowed", "slots_modules",
        "percore_loop_modules", "layers", "events_path", "weights_path",
        "obs_names_path",
    ),
    "repro.mitigation.instrcheck.campaign.InstrCheckConfig": (
        "units", "sample_rate", "screen_interval_ticks", "policy",
    ),
    "repro.serving.campaign.CampaignConfig": (
        "ticks", "tick_ms", "arrivals_per_tick", "n_replicas",
        "per_replica_per_tick", "payload_bytes", "deadline_ms",
        "base_latency_ms", "straggler_prob", "straggler_factor",
        "offline_penalty_ms", "mce_penalty_ms", "policy",
    ),
    "repro.serving.robustness.HardeningConfig": (
        "name", "validate", "retry", "hedge", "breaker", "shed",
    ),
    "repro.serving.scale_campaign.ScaleConfig": ("ticks", "policy"),
    "repro.serving.scale_campaign.ScaleHardening": (
        "name", "validate", "retry", "retry_budget", "hedge", "breaker",
        "shed", "degradation", "autoscale", "router_policy",
    ),
    "repro.storage.campaign.StorageCampaignConfig": ("ticks", "policy"),
    "repro.storage.campaign.StorageProtections": (
        "name", "store", "use_wal", "verify_wal_on_replay", "scrub",
        "antientropy", "dedicated_weights",
    ),
    "repro.storage.store.StoreConfig": (
        "write_quorum", "read_quorum", "encrypt_verify", "vote_reads",
        "verify_read_crc", "key",
    ),
}

_OPTION_CLASS = re.compile(r"(Config|Policy|Hardening|Protections)$")


def _option_classes() -> dict[str, tuple[str, ...]]:
    """Every option dataclass defined under ``repro``, with its fields."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # running it is the CLI
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
                and _OPTION_CLASS.search(name)
            ):
                found[f"{module.__name__}.{name}"] = tuple(
                    field.name for field in dataclasses.fields(obj)
                )
    return found


def test_option_inventory_is_pinned():
    assert _option_classes() == OPTIONS


@pytest.mark.parametrize("config_cls, field, value", [
    # a negative run length runs nothing and returns a scorecard
    (ScaleConfig, "ticks", -5),
    (CampaignConfig, "ticks", -5),
    (StorageCampaignConfig, "ticks", -5),
    (InstrCheckConfig, "units", -5),
    # the screen arm never samples, so it ran with any rate at all
    (InstrCheckConfig, "sample_rate", float("nan")),
    (InstrCheckConfig, "sample_rate", 1.5),
    (InstrCheckConfig, "sample_rate", -0.2),
    # a zero cadence was a bare ZeroDivisionError mid-run
    (InstrCheckConfig, "screen_interval_ticks", 0),
])
def test_surviving_options_are_validated(config_cls, field, value):
    with pytest.raises(ValueError, match=field):
        config_cls(**{field: value})


@pytest.mark.parametrize("config_cls, field", [
    (ScaleConfig, "ticks"),
    (CampaignConfig, "ticks"),
    (StorageCampaignConfig, "ticks"),
    (InstrCheckConfig, "units"),
])
def test_empty_runs_stay_legal(config_cls, field):
    assert getattr(config_cls(**{field: 0}), field) == 0
