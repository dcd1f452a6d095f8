"""Tail-latency SLOs, throughput-latency curves, and capacity planning.

Serving capacity is not "how many QPS until saturation" — it is "how many
QPS while p99 stays under the SLO".  This module closes that loop over
the event simulation:

* :class:`SLO` — latency objectives (p50/p95/p99 bounds, any subset);
* :func:`replica_capacity_qps` — analytic per-replica saturation
  throughput (full batches, steady-state cache hit rate), the scale
  against which offered load fractions are defined;
* :func:`throughput_latency_curve` — sweep offered load and measure the
  latency quantiles (the serving analogue of the paper's
  throughput-vs-batch-size trade-off, §V-B);
* :func:`plan_serving_capacity` — smallest replica pool that serves a
  target QPS within the SLO, with the fleet-style power bill.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.config import ModelConfig
from .cache import CacheBank
from .engine import ServingConfig, ServingResult, resolve_platform, simulate_serving
from .replica import Replica
from .traffic import TrafficConfig

__all__ = [
    "SLO",
    "DEFAULT_CURVE_LOADS",
    "replica_capacity_qps",
    "throughput_latency_curve",
    "ServingCapacityPlan",
    "plan_serving_capacity",
]

#: Offered-load fractions (of pool saturation) for the standard curve.
#: The range starts at 0.5 — the congestion-dominated regime where p99
#: rises monotonically with load.  Below that, *adaptive batching* makes
#: the tail slightly non-monotone: moderate load forms bigger batches,
#: and amortizing the fixed per-launch overhead (§V-B) initially beats
#: the queueing delay it costs.  ``throughput_latency_curve`` accepts
#: arbitrary loads if you want to see that regime.
DEFAULT_CURVE_LOADS = (0.5, 0.65, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class SLO:
    """Latency objectives in milliseconds (``None`` = unconstrained)."""

    p99_ms: float | None = 25.0
    p95_ms: float | None = None
    p50_ms: float | None = None

    def __post_init__(self) -> None:
        for name in ("p99_ms", "p95_ms", "p50_ms"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when set")

    def violations(self, result: ServingResult) -> dict[str, tuple[float, float]]:
        """Objectives the result misses: name -> (measured_ms, bound_ms)."""
        out: dict[str, tuple[float, float]] = {}
        for name, measured in (
            ("p99_ms", result.p99_ms),
            ("p95_ms", result.p95_ms),
            ("p50_ms", result.p50_ms),
        ):
            bound = getattr(self, name)
            if bound is not None and measured > bound:
                out[name] = (measured, bound)
        return out

    def satisfied_by(self, result: ServingResult) -> bool:
        return not self.violations(result)


def replica_capacity_qps(model: ModelConfig, cfg: ServingConfig, skew: float = 1.05) -> float:
    """Saturation throughput of ONE replica: full batches back-to-back at
    the steady-state (analytic) cache hit rate.

    This is the denominator for offered-load fractions; actual sustainable
    QPS under an SLO is lower (queueing delay blows the tail first).
    """
    replica = Replica(0, model, cfg.cache, resolve_platform(cfg.platform))
    b = cfg.policy.max_batch_requests
    lookups = b * model.mean_total_lookups
    hit_rate = (
        CacheBank(model, cfg.cache).predicted_hit_rate(skew) if cfg.cache.enabled else 0.0
    )
    svc = replica.service_time(b, int(round(lookups)), int(round(lookups * hit_rate)))
    return b / svc


def throughput_latency_curve(
    model: ModelConfig,
    cfg: ServingConfig,
    loads: tuple[float, ...] = DEFAULT_CURVE_LOADS,
    requests_per_point: int = 2000,
    skew: float = 1.05,
    seed: int = 0,
) -> list[tuple[float, ServingResult]]:
    """Simulate the pool at several offered-load fractions.

    Every point serves the same *number* of requests (duration scales
    inversely with QPS) so latency quantiles across points have equal
    sample sizes — without this, low-load points would be noisier and the
    curve's monotonicity would be a statistical accident.
    """
    if not loads:
        raise ValueError("loads must be non-empty")
    if any(f <= 0 for f in loads):
        raise ValueError("load fractions must be positive")
    capacity = cfg.num_replicas * replica_capacity_qps(model, cfg, skew)
    points: list[tuple[float, ServingResult]] = []
    for frac in loads:
        qps = frac * capacity
        traffic = TrafficConfig(
            qps=qps,
            duration_s=requests_per_point / qps,
            skew=skew,
            seed=seed,
        )
        points.append((qps, simulate_serving(model, traffic, cfg)))
    return points


@dataclass(frozen=True)
class ServingCapacityPlan:
    """Outcome of SLO-constrained capacity planning."""

    model_name: str
    target_qps: float
    slo: SLO
    num_replicas: int
    feasible: bool
    per_replica_capacity_qps: float
    p99_ms: float
    completed_qps: float
    power_watts: float

    @property
    def qps_per_watt(self) -> float:
        return self.completed_qps / self.power_watts if self.power_watts else 0.0


def plan_serving_capacity(
    model: ModelConfig,
    target_qps: float,
    slo: SLO,
    cfg: ServingConfig = ServingConfig(),
    max_replicas: int = 64,
    requests_per_point: int = 1500,
    seed: int = 0,
) -> ServingCapacityPlan:
    """Smallest replica pool serving ``target_qps`` within the SLO.

    Starts from the work-conserving lower bound (demand / per-replica
    saturation) and grows the pool until the simulated tail fits — the
    headroom above the bound is the price of tail latency.
    """
    if target_qps <= 0:
        raise ValueError("target_qps must be positive")
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    per_replica = replica_capacity_qps(model, cfg)
    platform = resolve_platform(cfg.platform)
    start = max(1, int(target_qps / per_replica) + (target_qps % per_replica > 0))
    # When even the work-conserving bound exceeds the pool cap, still
    # simulate the capped pool so the infeasible outcome reports its tail.
    start = min(start, max_replicas)
    last_result: ServingResult | None = None
    for n in range(start, max_replicas + 1):
        trial = replace(cfg, num_replicas=n)
        traffic = TrafficConfig(
            qps=target_qps,
            duration_s=requests_per_point / target_qps,
            seed=seed,
        )
        result = simulate_serving(model, traffic, trial)
        last_result = result
        meets_slo = slo.satisfied_by(result)
        # Keeping up means completing what arrived without drops; a pool
        # that cannot sustain the rate shows up as an exploding tail (the
        # queue grows through the window), so the SLO check catches
        # overload.  completed_qps is NOT compared against target_qps
        # here: it is measured over the full horizon *including* the
        # post-window drain, which under-reports at short windows.
        keeps_up = result.dropped == 0 and result.completed >= 0.95 * result.arrived
        if meets_slo and keeps_up:
            return ServingCapacityPlan(
                model_name=model.name,
                target_qps=target_qps,
                slo=slo,
                num_replicas=n,
                feasible=True,
                per_replica_capacity_qps=per_replica,
                p99_ms=result.p99_ms,
                completed_qps=result.completed_qps,
                power_watts=n * platform.nameplate_watts,
            )
    assert last_result is not None
    return ServingCapacityPlan(
        model_name=model.name,
        target_qps=target_qps,
        slo=slo,
        num_replicas=max_replicas,
        feasible=False,
        per_replica_capacity_qps=per_replica,
        p99_ms=last_result.p99_ms,
        completed_qps=last_result.completed_qps,
        power_watts=max_replicas * platform.nameplate_watts,
    )
