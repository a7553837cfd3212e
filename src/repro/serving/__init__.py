"""CEE-hardened serving: an RPC layer that tolerates mercurial cores.

§7's ask is software that *tolerates* mercurial cores, not just
detection: this package models a request/response service running on
fleet cores (:mod:`repro.serving.service`), the hardening toolkit
around it (:mod:`repro.serving.robustness`), the campaign driver + SLO
scorecard (:mod:`repro.serving.campaign`), and the serve-at-scale layer
E17 runs on — open-loop load generation (:mod:`repro.serving.loadgen`),
the sharded cluster with pluggable routing, retry budgets, degradation
tiers and autoscaling (:mod:`repro.serving.cluster`), and its campaign
driver (:mod:`repro.serving.scale_campaign`).  Chaos fault injection is
shared with the storage campaigns and lives in :mod:`repro.chaos`.
"""

from repro.chaos import ChaosAction, ChaosKind, ChaosSchedule
from repro.serving.campaign import (
    CampaignConfig,
    ServingCampaign,
    SloScorecard,
    build_serving_fleet,
)
from repro.serving.cluster import (
    ROUTER_POLICIES,
    Autoscaler,
    ConsistentHashRouter,
    DegradationTier,
    ReplicaRouter,
    RetryBudget,
    RoundRobinRouter,
    Shard,
    ShardedCluster,
)
from repro.serving.loadgen import (
    DEFAULT_COHORTS,
    LoadGenerator,
    LoadPhase,
    LoadProfile,
    UserCohort,
)
from repro.serving.robustness import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    HardeningConfig,
    LoadShedder,
    ResponseValidator,
)
from repro.serving.scale_campaign import (
    ScaleConfig,
    ScaleHardening,
    ScaleScorecard,
    ServeScaleCampaign,
    build_scale_fleet,
)
from repro.serving.service import (
    Attempt,
    AttemptOutcome,
    Request,
    Response,
    ResponseStatus,
    ServerReplica,
)

__all__ = [
    "Attempt",
    "AttemptOutcome",
    "Autoscaler",
    "BreakerBoard",
    "BreakerState",
    "CampaignConfig",
    "ChaosAction",
    "ChaosKind",
    "ChaosSchedule",
    "CircuitBreaker",
    "ConsistentHashRouter",
    "DEFAULT_COHORTS",
    "DegradationTier",
    "HardeningConfig",
    "LoadGenerator",
    "LoadPhase",
    "LoadProfile",
    "LoadShedder",
    "ROUTER_POLICIES",
    "ReplicaRouter",
    "Request",
    "Response",
    "ResponseStatus",
    "ResponseValidator",
    "RetryBudget",
    "RoundRobinRouter",
    "ScaleConfig",
    "ScaleHardening",
    "ScaleScorecard",
    "ServeScaleCampaign",
    "ServerReplica",
    "ServingCampaign",
    "Shard",
    "ShardedCluster",
    "SloScorecard",
    "UserCohort",
    "build_scale_fleet",
    "build_serving_fleet",
]
