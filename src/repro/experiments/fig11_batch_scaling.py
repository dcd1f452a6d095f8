"""Figure 11 — batch-size scaling on CPU and GPU.

Targets: CPU throughput peaks at a moderate batch and declines (cache
spill); GPU throughput rises roughly linearly while launch overheads
amortize, then saturates as communication balances compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import render_table
from ..configs import BATCH_SWEEP_CPU, BATCH_SWEEP_GPU, make_test_model
from ..core.config import ModelConfig
from ..hardware import BIG_BASIN
from ..obs.tracer import NullTracer, Tracer
from ..perf import cpu_cluster_throughput, gpu_server_throughput
from ..placement import PlacementPlan, PlacementStrategy, plan_placement
from ..runtime import SweepRunner

__all__ = ["Fig11Result", "run", "render", "cpu_point", "gpu_point"]


@dataclass(frozen=True)
class Fig11Result:
    cpu_batches: tuple[int, ...]
    cpu_throughput: tuple[float, ...]
    gpu_batches: tuple[int, ...]
    gpu_throughput: tuple[float, ...]

    @property
    def cpu_optimal_batch(self) -> int:
        best = max(range(len(self.cpu_batches)), key=lambda i: self.cpu_throughput[i])
        return self.cpu_batches[best]

    @property
    def gpu_saturation_ratio(self) -> float:
        """Throughput gain over the last batch doubling — ~1 means saturated."""
        return self.gpu_throughput[-1] / self.gpu_throughput[-2]


def default_model() -> ModelConfig:
    return make_test_model(1024, 64, name="fig11")


def cpu_point(
    model: ModelConfig, batch: int, tracer: Tracer | NullTracer | None = None
) -> float:
    """One CPU grid point (module-level: picklable and cache-keyable)."""
    return cpu_cluster_throughput(model, batch, 1, 1, 1, tracer=tracer).throughput


def gpu_point(
    model: ModelConfig,
    batch: int,
    plan: PlacementPlan,
    tracer: Tracer | NullTracer | None = None,
) -> float:
    """One GPU grid point under the sweep's one placement ``plan``."""
    return gpu_server_throughput(model, batch, BIG_BASIN, plan, tracer=tracer).throughput


def run(
    model: ModelConfig | None = None,
    cpu_batches: tuple[int, ...] = BATCH_SWEEP_CPU,
    gpu_batches: tuple[int, ...] = BATCH_SWEEP_GPU,
    tracer: Tracer | NullTracer | None = None,
    runner: SweepRunner | None = None,
) -> Fig11Result:
    """Sweep batch sizes through ``runner`` (default: one in-process worker,
    no cache).  ``tracer`` reaches every point, so it records spans only
    when the points run in this process: a recording tracer with a runner
    that forks workers or serves points from a cache would come back
    empty, and raises ``ValueError`` instead."""
    model = model or default_model()
    runner = runner or SweepRunner()
    if tracer is not None and not tracer.enabled:
        tracer = None  # a no-op tracer is no point parameter (nor cache key)
    if tracer is not None and (runner.workers >= 2 or runner.cache is not None):
        raise ValueError(
            "a recording tracer sees only points computed in this process: "
            f"pass a runner with workers <= 1 and no cache (got workers="
            f"{runner.workers}, cache={runner.cache!r})"
        )
    cpu = tuple(
        runner.map(
            cpu_point,
            [{"model": model, "batch": b, "tracer": tracer} for b in cpu_batches],
            namespace="fig11.cpu",
        )
    )
    plan = plan_placement(model, BIG_BASIN, PlacementStrategy.GPU_MEMORY)
    gpu = tuple(
        runner.map(
            gpu_point,
            [
                {"model": model, "batch": b, "plan": plan, "tracer": tracer}
                for b in gpu_batches
            ],
            namespace="fig11.gpu",
        )
    )
    return Fig11Result(cpu_batches, cpu, gpu_batches, gpu)


def render(result: Fig11Result) -> str:
    cpu_rows = [
        [b, f"{t:,.0f}", f"{t / max(result.cpu_throughput):.2f}"]
        for b, t in zip(result.cpu_batches, result.cpu_throughput)
    ]
    gpu_rows = [
        [b, f"{t:,.0f}", f"{t / max(result.gpu_throughput):.2f}"]
        for b, t in zip(result.gpu_batches, result.gpu_throughput)
    ]
    cpu_table = render_table(
        ["batch/trainer", "ex/s", "vs peak"],
        cpu_rows,
        title=f"Figure 11 (left): CPU batch scaling — optimum at {result.cpu_optimal_batch}",
    )
    gpu_table = render_table(
        ["global batch", "ex/s", "vs peak"],
        gpu_rows,
        title="Figure 11 (right): GPU batch scaling (saturating)",
    )
    return cpu_table + "\n\n" + gpu_table
