"""The option inventory: every knob a caller can set, pinned by name.

Two kinds of option live under ``src/repro``, and both are pinned:

- a field of a ``*Config``, ``*Policy``, ``*Hardening`` or
  ``*Protections`` dataclass.  ``OPTIONS`` is the committed table, so
  adding (or removing) one shows up as an edit to it in the diff;
- a defaulted parameter of a public callable (a module-level function,
  or a method or ``__init__`` of a module-level class).
  ``KEYWORD_DEFAULTS`` pins their count and the sha256 of the sorted
  ``module.qualname:param`` list.

Each one is a configuration some row, CLI flag, example or benchmark
has to exercise, or nobody measures it; a value nothing varies is a
module constant instead.

The options that survive are validated where a bad value would
otherwise run and return a plausible-looking result.
"""

import ast
import dataclasses
import hashlib
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.analysis.economics import ScreeningPolicy
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


#: (count, sha256 of the sorted ``module.qualname:param`` lines) of the
#: defaulted parameters of public callables; re-pin on purpose when a
#: keyword option is added or retired
KEYWORD_DEFAULTS = (
    323, "80d6ea376f93689c8d21c53a360d191329d343b3245940d347f70d3209dc971e",
)


def _keyword_defaults() -> list[str]:
    """Every defaulted parameter of a public module-level function, or
    of a public method (``__init__`` included) of a public module-level
    class, under ``src/repro``."""
    root = Path(repro.__file__).parent

    def defaulted(fn: ast.FunctionDef) -> list[str]:
        args = fn.args
        positional = args.posonlyargs + args.args
        tail = positional[len(positional) - len(args.defaults):]
        keyword = [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        return [arg.arg for arg in tail + keyword]

    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found += [f"{module}.{node.name}:{p}" for p in defaulted(node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")
                    ):
                        qualname = f"{node.name}.{item.name}"
                        found += [
                            f"{module}.{qualname}:{p}" for p in defaulted(item)
                        ]
    return sorted(found)


def test_keyword_default_inventory_is_pinned():
    found = _keyword_defaults()
    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
    assert (len(found), digest) == KEYWORD_DEFAULTS, "\n".join(found)


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
    # a negative period reported negative days-to-detect and cost, a
    # zero one was a bare ZeroDivisionError, and NaN ran through
    (ScreeningPolicy, "period_days", -7.0),
    (ScreeningPolicy, "period_days", 0.0),
    (ScreeningPolicy, "period_days", float("nan")),
    (ScreeningPolicy, "period_days", float("inf")),
    (ScreeningPolicy, "corpus_ops", -1.0),
    (ScreeningPolicy, "corpus_ops", float("nan")),
    (ScreeningPolicy, "env_boost", 0.0),
    (ScreeningPolicy, "env_boost", float("inf")),
    (ScreeningPolicy, "drain_coreseconds", -1.0),
    (ScreeningPolicy, "drain_coreseconds", float("nan")),
])
def test_surviving_options_are_validated(config_cls, field, value):
    kwargs = {field: value}
    if config_cls is ScreeningPolicy:  # the two fields without a default
        kwargs = {"period_days": 7.0, "corpus_ops": 2e5, **kwargs}
    with pytest.raises(ValueError, match=field):
        config_cls(**kwargs)


@pytest.mark.parametrize("config_cls, field", [
    (ScaleConfig, "ticks"),
    (CampaignConfig, "ticks"),
    (StorageCampaignConfig, "ticks"),
    (InstrCheckConfig, "units"),
])
def test_empty_runs_stay_legal(config_cls, field):
    assert getattr(config_cls(**{field: 0}), field) == 0
