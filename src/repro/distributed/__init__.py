"""Distributed training: functional sync algorithms and event-level cluster sim."""

from .cluster import ClusterConfig, ClusterResult, SyncMode, simulate_cpu_cluster
from .gpu_sim import GpuServerSimResult, simulate_gpu_server
from .mp import (
    HybridResult,
    HybridRunConfig,
    ShardPlan,
    WorkerCrashError,
    run_hybrid,
    run_hybrid_serial,
)
from .simulator import Event, Resource, Simulator
from .sync import EASGDConfig, EASGDTrainer

__all__ = [
    "Simulator",
    "Resource",
    "Event",
    "ClusterConfig",
    "ClusterResult",
    "SyncMode",
    "simulate_cpu_cluster",
    "GpuServerSimResult",
    "simulate_gpu_server",
    "EASGDConfig",
    "EASGDTrainer",
    "HybridRunConfig",
    "HybridResult",
    "ShardPlan",
    "WorkerCrashError",
    "run_hybrid",
    "run_hybrid_serial",
]
