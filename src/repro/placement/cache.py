"""Hot-row caching for embedding tables (paper §III-A.2's caching opportunity).

Feature accesses are heavily skewed (Zipf-like; Figure 7), so a small cache
of hot rows in fast memory can serve most lookups.  This module provides
the capacity-planning side of that what-if:

* :func:`zipf_hit_rate` / :func:`lru_hit_rate` — re-exported from
  :mod:`repro.tiering.analytic`, the repo's single home for the analytic
  hit-rate math;
* :class:`CachePlan` — sizing a per-table HBM cache under a byte budget and
  reporting the fraction of lookup traffic it absorbs.

:func:`cached_system_memory_throughput` in :mod:`repro.perf.whatif` uses
the absorbed fraction to discount host-memory traffic for system-memory
placements — the optimization the paper sketches for Big Basin.  Both
predictions are cross-validated against the functional
:class:`repro.tiering.policy.PolicyCache` in ``tests/test_tiering.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import ModelConfig, TableSpec
from ..tiering.analytic import lru_hit_rate, zipf_hit_rate

__all__ = ["zipf_hit_rate", "lru_hit_rate", "CachePlan", "plan_cache"]


@dataclass(frozen=True)
class CachePlan:
    """Per-table cache sizing and the aggregate absorbed lookup fraction."""

    cached_rows: dict[str, int]
    cache_bytes: float
    absorbed_lookup_fraction: float


def plan_cache(
    model: ModelConfig,
    cache_budget_bytes: float,
    skew: float = 1.05,
    row_overhead_bytes: int = 8,
) -> CachePlan:
    """Greedy cache sizing: spend the byte budget on the rows that absorb
    the most lookup traffic per byte.

    Tables are filled in order of lookup intensity (accesses per byte of
    row), each up to the point of diminishing returns (at most 10% of the
    table's rows — past the Zipf head, hit rate grows too slowly to pay).
    """
    if cache_budget_bytes < 0:
        raise ValueError("cache_budget_bytes must be >= 0")
    row_bytes = {
        t.name: t.dim * 4 + row_overhead_bytes for t in model.tables
    }

    def intensity(t: TableSpec) -> float:
        return t.effective_mean_lookups / (t.hash_size * row_bytes[t.name])

    cached: dict[str, int] = {t.name: 0 for t in model.tables}
    remaining = cache_budget_bytes
    for t in sorted(model.tables, key=intensity, reverse=True):
        cap_rows = max(1, t.hash_size // 10)
        affordable = int(remaining // row_bytes[t.name])
        take = min(cap_rows, affordable, t.hash_size)
        if take <= 0:
            continue
        cached[t.name] = take
        remaining -= take * row_bytes[t.name]

    total_lookups = max(model.mean_total_lookups, 1e-12)
    absorbed = 0.0
    for t in model.tables:
        if cached[t.name]:
            absorbed += (
                t.effective_mean_lookups
                * zipf_hit_rate(t.hash_size, cached[t.name], skew)
                / total_lookups
            )
    return CachePlan(
        cached_rows=cached,
        cache_bytes=cache_budget_bytes - remaining,
        absorbed_lookup_fraction=min(1.0, absorbed),
    )
