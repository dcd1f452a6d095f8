"""Figure 13 — throughput under varying MLP dimensions.

Targets: normalized throughput stays near-flat until the stacks exceed
256^3, then falls, with the CPU dropping faster than the GPU (the GPU's
compute headroom absorbs wide GEMMs better).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import render_table
from ..configs import DEFAULT_CPU_BATCH, DEFAULT_GPU_BATCH, MLP_SWEEP, make_test_model
from ..hardware import BIG_BASIN
from ..perf import cpu_cluster_throughput, gpu_server_throughput
from ..placement import PlacementStrategy, plan_placement
from ..runtime import SweepRunner

__all__ = ["MlpPoint", "Fig13Result", "run", "render", "mlp_point"]


@dataclass(frozen=True)
class MlpPoint:
    mlp: str
    cpu_throughput: float
    gpu_throughput: float


@dataclass(frozen=True)
class Fig13Result:
    points: tuple[MlpPoint, ...]

    def normalized(self) -> list[tuple[str, float, float]]:
        """(mlp, cpu_rel, gpu_rel) normalized to the smallest stack."""
        base_cpu = self.points[0].cpu_throughput
        base_gpu = self.points[0].gpu_throughput
        return [
            (p.mlp, p.cpu_throughput / base_cpu, p.gpu_throughput / base_gpu)
            for p in self.points
        ]


def mlp_point(mlp: str, num_dense: int, num_sparse: int) -> dict:
    """One Fig 13 grid point as a JSON-friendly dict (picklable, cacheable)."""
    model = make_test_model(num_dense, num_sparse, mlp=mlp)
    cpu = cpu_cluster_throughput(model, DEFAULT_CPU_BATCH, 1, 1, 1).throughput
    plan = plan_placement(model, BIG_BASIN, PlacementStrategy.GPU_MEMORY)
    gpu = gpu_server_throughput(model, DEFAULT_GPU_BATCH, BIG_BASIN, plan).throughput
    return {"mlp": mlp, "cpu_throughput": cpu, "gpu_throughput": gpu}


def run(
    mlp_sweep: tuple[str, ...] = MLP_SWEEP,
    num_dense: int = 512,
    num_sparse: int = 64,
    runner: SweepRunner | None = None,
) -> Fig13Result:
    """Sweep MLP stacks through ``runner`` (default: one in-process worker)."""
    raw = (runner or SweepRunner()).map(
        mlp_point,
        [
            {"mlp": m, "num_dense": num_dense, "num_sparse": num_sparse}
            for m in mlp_sweep
        ],
        namespace="fig13.mlp",
    )
    return Fig13Result(tuple(MlpPoint(**d) for d in raw))


def render(result: Fig13Result) -> str:
    rows = [
        [mlp, f"{cpu_rel:.2f}", f"{gpu_rel:.2f}"]
        for mlp, cpu_rel, gpu_rel in result.normalized()
    ]
    return render_table(
        ["MLP dims", "CPU (normalized)", "GPU (normalized)"],
        rows,
        title="Figure 13: throughput vs MLP dimensions (normalized to smallest stack)",
    )
