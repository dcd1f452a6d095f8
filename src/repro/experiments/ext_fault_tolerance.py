"""Extension experiment — fault tolerance economics (§III-A.6, §IV-B).

The paper motivates its asynchronous production design with resilience:
"at the scale of hundreds of machines, host failures are routine" — but it
reports no numbers for what a failure *costs*.  This experiment measures
two such curves in the event-level cluster simulation:

1. **Goodput vs. checkpoint interval** (async mode, MTBF-sampled sparse-PS
   crashes).  Frequent checkpoints burn throughput on write stalls; rare
   checkpoints lose large rollback windows per crash.  The measured
   optimum is compared against the first-order Young/Daly prediction
   ``sqrt(2 * checkpoint_cost * MTBF)`` and the analytical goodput
   fraction from :func:`repro.resilience.expected_goodput_fraction`.

2. **Sync vs. async under an identical fault plan** (one scheduled
   sparse-PS crash).  Fully-synchronous training stalls the whole cluster
   through recovery and rolls everything back to the last checkpoint;
   EASGD/Hogwild async loses only the crashed shard's window and keeps the
   survivors training — the quantitative form of the paper's
   async-resilience argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import render_table
from ..configs import make_test_model
from ..core.config import ModelConfig
from ..distributed import ClusterConfig, SyncMode, simulate_cpu_cluster
from ..resilience import (
    ComponentKind,
    FaultEvent,
    FaultPlan,
    checkpoint_write_time_s,
    expected_goodput_fraction,
    model_checkpoint_bytes,
    restore_time_s,
    young_daly_interval_s,
)
from ..runtime import SweepRunner

__all__ = [
    "IntervalPoint",
    "ModeOutcome",
    "FaultToleranceResult",
    "interval_point",
    "mode_point",
    "run",
    "render",
]

#: Checkpoint intervals swept (simulated seconds).
INTERVAL_SWEEP: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8)


def default_model() -> ModelConfig:
    """Small enough to simulate fast, big enough that restore time is real."""
    return make_test_model(128, 8, mlp="128^2", hash_size=200_000, dim=32)


@dataclass(frozen=True)
class IntervalPoint:
    """Measured + analytic goodput at one checkpoint interval."""

    interval_s: float
    goodput: float
    goodput_fraction: float  # measured, vs failure-free throughput
    analytic_fraction: float  # Young/Daly-style first-order prediction
    lost_examples: int
    crashes: int
    checkpoints_taken: int
    checkpoint_time_s: float


@dataclass(frozen=True)
class ModeOutcome:
    """One sync mode's outcome under the scripted crash scenario."""

    sync_mode: str
    goodput: float
    throughput: float
    availability: float
    goodput_fraction: float  # vs the failure-free baseline
    lost_examples: int
    crashes: int
    stall_time_s: float
    recovery_time_s: float


@dataclass(frozen=True)
class FaultToleranceResult:
    failure_free_goodput: float
    checkpoint_cost_s: float
    cluster_mtbf_s: float
    young_daly_s: float
    interval_points: tuple[IntervalPoint, ...]
    mode_outcomes: tuple[ModeOutcome, ...]

    def best_interval_s(self) -> float:
        """The measured-goodput-optimal checkpoint interval."""
        return max(self.interval_points, key=lambda p: p.goodput).interval_s

    def outcome(self, mode: str) -> ModeOutcome:
        for o in self.mode_outcomes:
            if o.sync_mode == mode:
                return o
        raise KeyError(mode)


# -- grid-point functions (module-level: picklable for SweepRunner) ----------


def interval_point(
    model: ModelConfig,
    num_trainers: int,
    num_sparse_ps: int,
    num_dense_ps: int,
    batch_per_trainer: int,
    mtbf_s: float,
    interval_s: float,
    horizon_s: float,
    seed: int,
) -> dict:
    """One checkpoint-interval grid point (async, MTBF-sampled PS crashes).

    Returns the JSON-friendly resilience summary so the point is cacheable
    by :class:`~repro.runtime.ResultCache`.
    """
    cfg = ClusterConfig(
        num_trainers=num_trainers,
        num_sparse_ps=num_sparse_ps,
        num_dense_ps=num_dense_ps,
        batch_per_trainer=batch_per_trainer,
        sync_mode=SyncMode.ASYNC,
        fault_plan=FaultPlan(sparse_ps_mtbf_s=mtbf_s, seed=seed),
        checkpoint_interval_s=interval_s,
        seed=seed,
    )
    return simulate_cpu_cluster(model, cfg, horizon_s=horizon_s).resilience_summary()


def mode_point(
    model: ModelConfig,
    num_trainers: int,
    num_sparse_ps: int,
    num_dense_ps: int,
    batch_per_trainer: int,
    sync_mode: str,
    crash_time_s: float,
    interval_s: float,
    horizon_s: float,
    seed: int,
) -> dict:
    """One sync-mode grid point under a single scheduled sparse-PS crash."""
    plan = FaultPlan(
        scheduled_crashes=(
            FaultEvent(kind=ComponentKind.SPARSE_PS, index=1, time_s=crash_time_s),
        ),
        seed=seed,
    )
    cfg = ClusterConfig(
        num_trainers=num_trainers,
        num_sparse_ps=num_sparse_ps,
        num_dense_ps=num_dense_ps,
        batch_per_trainer=batch_per_trainer,
        sync_mode=sync_mode,
        fault_plan=plan,
        checkpoint_interval_s=interval_s,
        seed=seed,
    )
    return simulate_cpu_cluster(model, cfg, horizon_s=horizon_s).resilience_summary()


def run(
    num_trainers: int = 8,
    num_sparse_ps: int = 4,
    num_dense_ps: int = 1,
    batch_per_trainer: int = 200,
    horizon_s: float = 2.0,
    mtbf_s: float = 2.0,
    intervals: tuple[float, ...] = INTERVAL_SWEEP,
    seed: int = 0,
    runner: SweepRunner | None = None,
) -> FaultToleranceResult:
    """Measure both curves; their grid points go through ``runner``
    (default: one in-process worker).

    ``mtbf_s`` is the per-sparse-PS mean time between failures; the
    cluster-level MTBF used for the Young/Daly prediction is
    ``mtbf_s / num_sparse_ps`` (any-of failure rate).
    """
    model = default_model()
    runner = runner or SweepRunner()
    common = dict(
        model=model,
        num_trainers=num_trainers,
        num_sparse_ps=num_sparse_ps,
        num_dense_ps=num_dense_ps,
        batch_per_trainer=batch_per_trainer,
        horizon_s=horizon_s,
        seed=seed,
    )

    # Failure-free baseline: same cluster, no plan, no checkpoints.
    base_cfg = ClusterConfig(
        num_trainers=num_trainers,
        num_sparse_ps=num_sparse_ps,
        num_dense_ps=num_dense_ps,
        batch_per_trainer=batch_per_trainer,
        seed=seed,
    )
    baseline = simulate_cpu_cluster(model, base_cfg, horizon_s=horizon_s)
    base_goodput = baseline.goodput

    platform = base_cfg.platform
    ckpt_cost = checkpoint_write_time_s(
        model_checkpoint_bytes(model), platform, shards=num_sparse_ps
    )
    restore_s = restore_time_s(
        2 * model.embedding_bytes, platform, shards=num_sparse_ps
    )
    cluster_mtbf = mtbf_s / num_sparse_ps
    yd = young_daly_interval_s(cluster_mtbf, ckpt_cost)

    # -- curve 1: goodput vs checkpoint interval (async, random crashes) ----
    summaries = runner.map(
        interval_point,
        [dict(common, mtbf_s=mtbf_s, interval_s=tau) for tau in intervals],
        namespace="ext_faults.interval",
    )
    points = tuple(
        IntervalPoint(
            interval_s=tau,
            goodput=s["goodput"],
            goodput_fraction=s["goodput"] / base_goodput if base_goodput else 0.0,
            analytic_fraction=expected_goodput_fraction(
                tau, ckpt_cost, cluster_mtbf, restore_s
            ),
            lost_examples=int(s["lost_examples"]),
            crashes=int(s["crashes"]),
            checkpoints_taken=int(s["checkpoints_taken"]),
            checkpoint_time_s=s["checkpoint_time_s"],
        )
        for tau, s in zip(intervals, summaries)
    )

    # -- curve 2: sync vs async under one scheduled sparse-PS crash ---------
    modes = (SyncMode.ASYNC, SyncMode.SYNC)
    summaries = runner.map(
        mode_point,
        [
            dict(common, sync_mode=mode, crash_time_s=0.5 * horizon_s,
                 interval_s=0.125 * horizon_s)
            for mode in modes
        ],
        namespace="ext_faults.mode",
    )
    outcomes = tuple(
        ModeOutcome(
            sync_mode=mode,
            goodput=s["goodput"],
            throughput=s["throughput"],
            availability=s["availability"],
            goodput_fraction=s["goodput"] / base_goodput if base_goodput else 0.0,
            lost_examples=int(s["lost_examples"]),
            crashes=int(s["crashes"]),
            stall_time_s=s["stall_time_s"],
            recovery_time_s=s["recovery_time_s"],
        )
        for mode, s in zip(modes, summaries)
    )

    return FaultToleranceResult(
        failure_free_goodput=base_goodput,
        checkpoint_cost_s=ckpt_cost,
        cluster_mtbf_s=cluster_mtbf,
        young_daly_s=yd,
        interval_points=points,
        mode_outcomes=outcomes,
    )


def render(result: FaultToleranceResult) -> str:
    interval_rows = [
        [
            f"{p.interval_s * 1e3:.0f} ms",
            f"{p.goodput:,.0f}",
            f"{100 * p.goodput_fraction:.1f}%",
            f"{100 * p.analytic_fraction:.1f}%",
            f"{p.crashes}",
            f"{p.lost_examples:,}",
            f"{p.checkpoints_taken}",
        ]
        for p in result.interval_points
    ]
    part1 = render_table(
        ["ckpt interval", "goodput ex/s", "vs failure-free", "Young/Daly pred.",
         "crashes", "lost ex", "ckpts"],
        interval_rows,
        title=(
            "Extension: goodput vs checkpoint interval (async, sparse-PS "
            f"MTBF-sampled crashes; cluster MTBF {result.cluster_mtbf_s * 1e3:.0f} ms, "
            f"ckpt cost {result.checkpoint_cost_s * 1e3:.1f} ms, "
            f"Young/Daly optimum {result.young_daly_s * 1e3:.0f} ms, "
            f"measured best {result.best_interval_s() * 1e3:.0f} ms)"
        ),
    )
    mode_rows = [
        [
            o.sync_mode,
            f"{o.goodput:,.0f}",
            f"{100 * o.goodput_fraction:.1f}%",
            f"{100 * o.availability:.1f}%",
            f"{o.lost_examples:,}",
            f"{o.stall_time_s * 1e3:.0f} ms",
            f"{o.recovery_time_s * 1e3:.0f} ms",
        ]
        for o in result.mode_outcomes
    ]
    part2 = render_table(
        ["sync mode", "goodput ex/s", "vs failure-free", "availability",
         "lost ex", "stall", "recovery"],
        mode_rows,
        title=(
            "Extension: sync vs async under one sparse-PS crash "
            f"(failure-free goodput {result.failure_free_goodput:,.0f} ex/s; "
            "§III-A.6's async-resilience argument, measured)"
        ),
    )
    return part1 + "\n\n" + part2
