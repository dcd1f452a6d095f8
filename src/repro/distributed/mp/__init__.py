"""True multi-process hybrid-parallel training (shared-memory + sockets).

See :mod:`repro.distributed.mp.hybrid` for the execution model: embedding
tables model-parallel in shared memory, MLPs data-parallel with a real
ring/ordered allreduce over socketpairs, one sparse exchange and one
dense allreduce per step on the worker's main thread.
"""

from .allreduce import (
    PackedAllreduce,
    ordered_allreduce,
    ordered_sum,
    ring_allreduce,
    ring_chunks,
    ring_ordered_sum,
)
from .channels import Channel, ChannelClosed, transfer
from .ckpt import (
    Manifest,
    ResumeState,
    VerifiedManifest,
    build_resume,
    latest_valid_manifest,
)
from .ft import (
    CrashRecord,
    FtResult,
    RestartPolicy,
    kills_from_plan,
    run_hybrid_ft,
)
from .hybrid import (
    HybridResult,
    HybridRunConfig,
    KillSpec,
    WorkerCrashError,
    run_hybrid,
    run_hybrid_serial,
)
from .predict import CommProfile, StepPrediction, predict_step_time, probe_comm
from .shards import ShardPlan, TableShards
from .timeouts import MpTimeouts, get_timeouts, set_timeouts

__all__ = [
    "Channel",
    "ChannelClosed",
    "CommProfile",
    "CrashRecord",
    "FtResult",
    "HybridResult",
    "HybridRunConfig",
    "KillSpec",
    "Manifest",
    "MpTimeouts",
    "PackedAllreduce",
    "RestartPolicy",
    "ResumeState",
    "ShardPlan",
    "StepPrediction",
    "TableShards",
    "VerifiedManifest",
    "WorkerCrashError",
    "build_resume",
    "get_timeouts",
    "kills_from_plan",
    "latest_valid_manifest",
    "ordered_allreduce",
    "ordered_sum",
    "predict_step_time",
    "probe_comm",
    "ring_allreduce",
    "ring_chunks",
    "ring_ordered_sum",
    "run_hybrid",
    "run_hybrid_ft",
    "run_hybrid_serial",
    "set_timeouts",
    "transfer",
]
