"""Figure 12 — hash-size scaling on CPU and GPU.

Targets: CPU throughput is flat with hash size (table size does not change
lookup cost); GPU throughput holds while tables fit in HBM (small tables
even replicate), drops sharply once tables spill into system memory, and
the model eventually stops fitting in the server at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import render_table
from ..configs import DEFAULT_CPU_BATCH, DEFAULT_GPU_BATCH, HASH_SWEEP, make_test_model
from ..hardware import BIG_BASIN, CapacityError
from ..perf import cpu_cluster_throughput, gpu_server_throughput
from ..placement import LocationKind, auto_plan
from ..runtime import SweepRunner

__all__ = ["HashPoint", "Fig12Result", "run", "render", "hash_point"]


@dataclass(frozen=True)
class HashPoint:
    hash_size: int
    cpu_throughput: float
    gpu_throughput: float | None  # None == infeasible on one Big Basin
    gpu_strategy: str | None
    replicated_tables: int
    system_spill_fraction: float


@dataclass(frozen=True)
class Fig12Result:
    points: tuple[HashPoint, ...]

    def cpu_flatness(self) -> float:
        """max/min CPU throughput across the sweep (1.0 == perfectly flat)."""
        values = [p.cpu_throughput for p in self.points]
        return max(values) / min(values)

    def gpu_feasible_points(self) -> list[HashPoint]:
        return [p for p in self.points if p.gpu_throughput is not None]


def hash_point(hash_size: int, num_dense: int, num_sparse: int) -> dict:
    """One Fig 12 grid point as a JSON-friendly dict (picklable, cacheable).

    ``CapacityError`` (model does not fit one Big Basin) is folded into the
    result rather than raised, so parallel execution never loses the
    infeasibility information.
    """
    model = make_test_model(num_dense, num_sparse, hash_size=hash_size)
    # CPU: scale sparse PS to the minimum that holds the tables, as the
    # paper holds a single PS only while the model fits it.
    from ..placement import model_embedding_footprint

    min_ps = max(1, int(-(-model_embedding_footprint(model) // 230e9)))
    cpu = cpu_cluster_throughput(model, DEFAULT_CPU_BATCH, 1, min_ps, 1).throughput
    try:
        plan = auto_plan(model, BIG_BASIN)
        gpu = gpu_server_throughput(
            model, DEFAULT_GPU_BATCH, BIG_BASIN, plan
        ).throughput
        kinds = plan.bytes_by_kind()
        total = sum(kinds.values())
        spill = kinds.get(LocationKind.SYSTEM, 0.0) / total if total else 0.0
        return {
            "hash_size": hash_size,
            "cpu_throughput": cpu,
            "gpu_throughput": gpu,
            "gpu_strategy": plan.strategy.value,
            "replicated_tables": len(plan.replicated_tables()),
            "system_spill_fraction": spill,
        }
    except CapacityError:
        return {
            "hash_size": hash_size,
            "cpu_throughput": cpu,
            "gpu_throughput": None,
            "gpu_strategy": None,
            "replicated_tables": 0,
            "system_spill_fraction": 1.0,
        }


def run(
    hash_sweep: tuple[int, ...] = HASH_SWEEP,
    num_dense: int = 1024,
    num_sparse: int = 64,
    runner: SweepRunner | None = None,
) -> Fig12Result:
    """Sweep hash sizes through ``runner`` (default: one in-process worker)."""
    raw = (runner or SweepRunner()).map(
        hash_point,
        [
            {"hash_size": h, "num_dense": num_dense, "num_sparse": num_sparse}
            for h in hash_sweep
        ],
        namespace="fig12.hash",
    )
    return Fig12Result(tuple(HashPoint(**d) for d in raw))


def render(result: Fig12Result) -> str:
    rows = []
    for p in result.points:
        rows.append(
            [
                f"{p.hash_size:,}",
                f"{p.cpu_throughput:,.0f}",
                f"{p.gpu_throughput:,.0f}" if p.gpu_throughput else "infeasible",
                p.gpu_strategy or "-",
                p.replicated_tables,
                f"{p.system_spill_fraction:.0%}",
            ]
        )
    table = render_table(
        ["hash size", "CPU ex/s", "GPU ex/s", "GPU placement", "replicated", "DRAM spill"],
        rows,
        title="Figure 12: hash-size scaling (CPU flat; GPU drops as tables spill HBM)",
    )
    return table + f"\nCPU flatness (max/min): {result.cpu_flatness():.3f}"
