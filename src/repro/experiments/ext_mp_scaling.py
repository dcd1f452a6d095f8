"""Extension — measured multi-process scaling vs. the simulator's prediction.

The paper's scaling story (§IV–V) is told through an analytical model; this
extension closes the loop with *real* processes: it trains the same model
with :func:`repro.distributed.mp.run_hybrid` at 1/2/4/8 workers, measures
the per-step wall time, and cross-validates each point against
:func:`repro.distributed.mp.predict_step_time` — the event-simulator
composition of measured sub-batch compute time and socketpair
latency/bandwidth.  Reported per point: measured step time, predicted step
time, relative error, and speedup over the single-process baseline.

The predictor adds its phases — compute, sparse exchange, dense allreduce,
barrier: every exchange blocks the worker's main thread, so there is no
overlap of communication with compute to credit.  A point with more
workers than cores is oversubscription, which the model approximates as
time-sharing but does not claim to describe: :func:`render` labels such a
row ``oversubscribed`` instead of scoring it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analysis import render_table
from ..core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from ..core.lanes import available_cores
from ..core.model import DLRM
from ..core.optim import Adagrad
from ..core.training import Trainer
from ..data import SyntheticDataGenerator
from ..distributed.mp import (
    CommProfile,
    HybridRunConfig,
    predict_step_time,
    probe_comm,
    run_hybrid,
)
from ..runtime.runner import derive_seed

__all__ = [
    "ScalingPoint",
    "MpScalingResult",
    "default_config",
    "run",
    "sweep",
    "render",
    "render_sweep",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One (workers, global batch) measurement with its prediction."""

    workers: int
    batch_size: int
    measured_step_s: float
    predicted_step_s: float
    sub_batch_step_s: float
    speedup: float  # single-process step time / measured step time
    rel_err: float  # |measured - predicted| / measured
    comm_s: float

    @property
    def within(self) -> float:
        """Relative error as a percentage (display convenience)."""
        return 100.0 * self.rel_err


@dataclass(frozen=True)
class MpScalingResult:
    points: tuple[ScalingPoint, ...]
    serial_step_s: float
    cores: int
    latency_us: float
    bandwidth_gbps: float
    barrier_us: float
    config_name: str
    mlp: str
    reduction: str


def default_config(
    mlp_width: int = 64,
    mlp_depth: int = 2,
    dim: int = 16,
    num_tables: int = 8,
    hash_size: int = 4000,
    mean_lookups: float = 4.0,
    dtype: str = "float32",
) -> ModelConfig:
    """A small-but-real DLRM for wall-clock scaling runs.

    The bottom stack ends at the embedding dimension (DOT interaction
    contract); widths parameterize the MLP-dim sweep.
    """
    return ModelConfig(
        name=f"mp-scaling-{mlp_width}^{mlp_depth}-d{dim}",
        num_dense=16,
        tables=uniform_tables(num_tables, hash_size, dim=dim, mean_lookups=mean_lookups),
        bottom_mlp=MLPSpec(tuple([mlp_width] * (mlp_depth - 1) + [dim])),
        top_mlp=MLPSpec(tuple([mlp_width] * mlp_depth)),
        interaction=InteractionType.DOT,
        compute_dtype=dtype,
    )


def _measure_sub_batch(config: ModelConfig, local_batch: int, steps: int, reps: int, seed: int) -> float:
    """Single-process full-step seconds at ``local_batch`` under the fused
    backend (the predictor's compute input): one warm-up pass, then the
    best of ``reps`` passes over the ``steps`` batches."""
    gen = SyntheticDataGenerator(config, rng=derive_seed(seed, "data", 0))
    batches = [gen.batch(local_batch) for _ in range(steps)]
    model = DLRM(config, rng=0, backend="fused")
    trainer = Trainer(
        model,
        lambda m: Adagrad(
            m.dense_parameters(), m.embedding_tables(), lr=0.01, backend=m.backend
        ),
    )
    best = float("inf")
    for rep in range(1 + reps):
        t0 = time.perf_counter()
        for b in batches:
            trainer.train_step(b)
        if rep:  # pass 0 is the warm-up
            best = min(best, time.perf_counter() - t0)
    return best / len(batches)


def run(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    batch_size: int = 512,
    steps: int = 4,
    seed: int = 0,
    reps: int = 2,
    reduction: str = "ordered",
    config: ModelConfig | None = None,
    comm: CommProfile | None = None,
    cores: int | None = None,
) -> MpScalingResult:
    """Measure the hybrid trainer at each worker count and predict it.

    ``comm`` (socketpair probe) and ``cores`` default to live measurements
    of this host; inject fixed values for reproducible tests.
    """
    config = config or default_config()
    comm = comm or probe_comm()
    cores = available_cores() if cores is None else cores

    serial_step_s = _measure_sub_batch(config, batch_size, steps, reps, seed)
    points = []
    for world in worker_counts:
        if batch_size % world:
            raise ValueError(f"batch_size {batch_size} not divisible by {world}")
        local = batch_size // world
        sub_s = (
            serial_step_s
            if world == 1
            else _measure_sub_batch(config, local, steps, reps, seed)
        )
        best = None
        for _ in range(reps):
            res = run_hybrid(
                config,
                HybridRunConfig(
                    workers=world,
                    steps=steps,
                    batch_size=batch_size,
                    seed=seed,
                    reduction=reduction,
                ),
            )
            best = res if best is None or res.step_time_s < best.step_time_s else best
        pred = predict_step_time(
            config,
            world=world,
            local_batch=local,
            sub_batch_step_s=sub_s,
            comm=comm,
            cores=cores,
            reduction=reduction,
        )
        measured = best.step_time_s
        points.append(
            ScalingPoint(
                workers=world,
                batch_size=batch_size,
                measured_step_s=measured,
                predicted_step_s=pred.total_s,
                sub_batch_step_s=sub_s,
                speedup=serial_step_s / measured,
                rel_err=abs(measured - pred.total_s) / measured,
                comm_s=best.comm_s,
            )
        )
    return MpScalingResult(
        points=tuple(points),
        serial_step_s=serial_step_s,
        cores=cores,
        latency_us=comm.latency_s * 1e6,
        bandwidth_gbps=comm.bandwidth_bps / 1e9,
        barrier_us=comm.barrier_s * 1e6,
        config_name=config.name,
        mlp=config.top_mlp.notation(),
        reduction=reduction,
    )


def sweep(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    batch_sizes: tuple[int, ...] = (256, 512),
    mlp_widths: tuple[int, ...] = (64, 128),
    steps: int = 4,
    seed: int = 0,
    reps: int = 2,
    reduction: str = "ordered",
) -> list[MpScalingResult]:
    """The batch-size x MLP-dim grid of scaling curves (shared comm probe)."""
    comm = probe_comm()
    cores = available_cores()
    results = []
    for width in mlp_widths:
        for batch in batch_sizes:
            results.append(
                run(
                    worker_counts=worker_counts,
                    batch_size=batch,
                    steps=steps,
                    seed=seed,
                    reps=reps,
                    reduction=reduction,
                    config=default_config(mlp_width=width),
                    comm=comm,
                    cores=cores,
                )
            )
    return results


def render(result: MpScalingResult) -> str:
    rows = [
        [
            str(p.workers),
            str(p.batch_size),
            f"{p.measured_step_s * 1e3:.2f}",
            f"{p.predicted_step_s * 1e3:.2f}",
            "oversubscribed" if p.workers > result.cores else f"{p.within:.1f}%",
            f"{p.speedup:.2f}x",
            f"{p.comm_s * 1e3:.2f}",
        ]
        for p in result.points
    ]
    return render_table(
        ["workers", "batch", "measured ms", "predicted ms", "rel err", "speedup", "comm ms"],
        rows,
        title=(
            f"MP scaling — {result.config_name} ({result.reduction}), "
            f"{result.cores} cores, link {result.bandwidth_gbps:.1f} GB/s @ "
            f"{result.latency_us:.0f}us, barrier {result.barrier_us:.0f}us"
        ),
    )


def render_sweep(results: list[MpScalingResult]) -> str:
    return "\n\n".join(render(r) for r in results)
