"""The inference service (Section 5).

Greedy SLO-aware batching (Algorithm 3), the sine arrival process of
the evaluation, the actor-critic controller that jointly selects the
batch size and the ensemble subset, the event-driven serving
environment the Figure 10/13-16 experiments run in, and the
high-concurrency front end (admission control, rate limits,
backpressure — see docs/SERVING.md) with its open/closed-loop load
harness.
"""

from repro.core.serve.actions import Action, ActionSpace
from repro.core.serve.actor_critic import ActorCritic
from repro.core.serve.arrival import SineArrival, solve_sine_coefficients
from repro.core.serve.batching import DEFAULT_BATCH_SIZES, BatchDecision, GreedyBatcher
from repro.core.serve.controllers import (
    AIMDController,
    Controller,
    Dispatch,
    GreedyAsyncController,
    GreedySingleController,
    GreedySyncController,
    RLController,
    Wait,
)
from repro.core.serve.ensemble import EnsembleScorer
from repro.core.serve.env import ServingEnv
from repro.core.serve.frontend import (
    AsyncServeFrontend,
    FrontendConfig,
    FrontendRequest,
    ScalingAdvisor,
    ServeFrontend,
    TokenBucket,
)
from repro.core.serve.loadgen import (
    LoadGenConfig,
    LoadTrace,
    ReplicaPool,
    capacity_qps,
    run_load,
    run_multi_load,
)
from repro.core.serve.metrics import DispatchRecord, ServingMetrics, TimelineRow
from repro.core.serve.pred_cache import PredictionCache
from repro.core.serve.profiler import fit_affine_latency, profile_network
from repro.core.serve.request import RequestQueue
from repro.core.serve.reward import batch_reward, count_overdue, mean_exceeding_time
from repro.core.serve.state import StateBuilder

__all__ = [
    "RequestQueue",
    "SineArrival",
    "solve_sine_coefficients",
    "GreedyBatcher",
    "BatchDecision",
    "DEFAULT_BATCH_SIZES",
    "ActionSpace",
    "Action",
    "ActorCritic",
    "StateBuilder",
    "EnsembleScorer",
    "Controller",
    "Dispatch",
    "Wait",
    "GreedySingleController",
    "GreedySyncController",
    "GreedyAsyncController",
    "RLController",
    "ServingEnv",
    "ServingMetrics",
    "PredictionCache",
    "profile_network",
    "fit_affine_latency",
    "DispatchRecord",
    "TimelineRow",
    "batch_reward",
    "count_overdue",
    "mean_exceeding_time",
    "AIMDController",
    "ServeFrontend",
    "AsyncServeFrontend",
    "FrontendConfig",
    "FrontendRequest",
    "TokenBucket",
    "ScalingAdvisor",
    "LoadGenConfig",
    "LoadTrace",
    "ReplicaPool",
    "run_load",
    "run_multi_load",
    "capacity_qps",
]
