"""Software-managed tiered embedding store (ROADMAP item 2).

DLRM embedding tables reach multiple TB (paper §III, Table II) and row
access is heavily Zipf-skewed, so a small DRAM hot tier backed by cheap
SCM/SSD capacity recovers most of the fast-tier performance — the
MTrainS argument.  This package provides:

* :mod:`~repro.tiering.analytic` — the repo's single home for analytic
  cache/tier hit-rate models (Che LRU approximation, top-k Zipf mass,
  and their pmf-general forms);
* :mod:`~repro.tiering.policy` — the one functional cache
  (:class:`PolicyCache`: lru / lfu / frequency-admission);
* :mod:`~repro.tiering.freq` — the one decayed access frequency (EMA)
  per chunk that "freq" admission scores by (segmentation-invariant:
  decayed per access);
* :mod:`~repro.tiering.costs` — tier access/migration pricing from
  :class:`repro.hardware.memory.MemoryTierSpec`;
* :mod:`~repro.tiering.store` — :class:`TieredEmbeddingTable`, the
  bit-identical drop-in for :class:`repro.core.embedding.EmbeddingTable`
  whose accesses are priced by tier placement.

``python -m repro tier {train,sweep}`` exercises the store end to end and
cross-validates measured overhead against the analytic cost model.
"""

from .analytic import (
    che_hit_rate_pmf,
    lru_hit_rate,
    policy_hit_rate,
    policy_hit_rate_pmf,
    topk_hit_rate_pmf,
    zipf_hit_rate,
)
from .costs import TierCostModel
from .freq import FreqStats
from .policy import POLICIES, PolicyCache
from .store import TieredEmbeddingTable, TieredStoreConfig, TierStats

__all__ = [
    "zipf_hit_rate",
    "lru_hit_rate",
    "topk_hit_rate_pmf",
    "che_hit_rate_pmf",
    "policy_hit_rate",
    "policy_hit_rate_pmf",
    "PolicyCache",
    "POLICIES",
    "FreqStats",
    "TierCostModel",
    "TieredStoreConfig",
    "TierStats",
    "TieredEmbeddingTable",
]
