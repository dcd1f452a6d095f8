"""The chunked, software-managed two-tier embedding store.

Multi-TB DLRM embedding tables exceed DRAM on any realistic host (paper
§III, Table II); ROADMAP item 2 asks for a software-managed tier in the
spirit of MTrainS: keep the frequently-accessed rows in a fast hot tier
(DRAM), spill the long Zipf tail to a cheap cold tier (SCM/SSD), and use
training-time access-frequency statistics to decide placement.

:class:`TieredEmbeddingTable` is a drop-in replacement for
:class:`~repro.core.embedding.EmbeddingTable` that is **bit-identical** to
the flat table at every precision: all rows live in the one flat weight
array, so forward/backward/optimizer numerics never change — only the
*simulated cost* of each access depends on tier placement.  Rows are
grouped into fixed-size chunks (the migration granule); the semantics of
:class:`~repro.tiering.policy.PolicyCache` over chunk ids decide which
chunks are hot — for the default ``"freq"`` policy scored by a per-chunk
decayed access frequency (:class:`~repro.tiering.freq.FreqStats`) and
applied to a whole lookup stream in one batched pass; and a
:class:`~repro.tiering.costs.TierCostModel` prices every hit, miss and
chunk migration into :class:`TierStats`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..core import kernels
from ..core.config import PoolingType, TableSpec
from ..core.embedding import EmbeddingTable, RaggedIndices, TablePlan
from ..hardware.memory import DRAM_TIER, SCM_TIER, MemoryTierSpec
from .costs import TierCostModel
from .freq import FreqStats
from .policy import POLICIES, PolicyCache

__all__ = ["TieredStoreConfig", "TierStats", "TieredEmbeddingTable"]


@dataclass(frozen=True)
class TieredStoreConfig:
    """Sizing, policy and pricing of a two-tier embedding store.

    Hot-tier capacity is given either as a fraction of the table's rows
    (``hot_fraction``) or as a byte budget (``hot_bytes``, priced via the
    table's :meth:`~repro.core.embedding.EmbeddingTable.bytes_per_row` so
    quantized rows count at their true width).
    """

    hot_fraction: float | None = 0.05
    hot_bytes: float | None = None
    chunk_rows: int = 8
    policy: str = "freq"
    ema_decay: float = 0.999
    window: int = 4096
    hot_tier: MemoryTierSpec = DRAM_TIER
    cold_tier: MemoryTierSpec = SCM_TIER

    def __post_init__(self) -> None:
        if self.hot_bytes is None and self.hot_fraction is None:
            raise ValueError("one of hot_fraction / hot_bytes must be set")
        if self.hot_bytes is not None and self.hot_bytes < 0:
            raise ValueError(f"hot_bytes must be >= 0, got {self.hot_bytes}")
        if self.hot_bytes is None and not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        if self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {self.chunk_rows}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")

    def capacity_chunks(self, hash_size: int, bytes_per_row: float) -> int:
        """Whole chunks that fit in the hot tier for a given table."""
        if self.hot_bytes is not None:
            hot_rows = int(self.hot_bytes // bytes_per_row) if bytes_per_row else 0
        else:
            hot_rows = int(round(self.hot_fraction * hash_size))
        num_chunks = math.ceil(hash_size / self.chunk_rows)
        return min(num_chunks, hot_rows // self.chunk_rows)


@dataclass
class TierStats:
    """Simulated-cost accounting of one tiered table's access stream.

    Only the three counters accumulate; every time is a counter times one
    of the table's unit costs, so deltas of any window add up exactly to
    the whole run's.
    """

    hot_hits: int = 0
    cold_misses: int = 0
    #: Chunk migrations into the hot tier (each priced as a read + write).
    promotions: int = 0
    #: Seconds per row served hot, per row served cold, per chunk migrated.
    hot_access_s: float = 0.0
    cold_access_s: float = 0.0
    chunk_move_s: float = 0.0

    @property
    def rejected(self) -> int:
        """Misses whose chunk was not admitted — served cold, no move."""
        return self.cold_misses - self.promotions

    @property
    def accesses(self) -> int:
        return self.hot_hits + self.cold_misses

    @property
    def hit_rate(self) -> float:
        return self.hot_hits / self.accesses if self.accesses else 0.0

    @property
    def hot_time_s(self) -> float:
        return self.hot_hits * self.hot_access_s

    @property
    def cold_time_s(self) -> float:
        return self.cold_misses * self.cold_access_s

    @property
    def move_time_s(self) -> float:
        return self.promotions * self.chunk_move_s

    @property
    def total_time_s(self) -> float:
        return self.hot_time_s + self.cold_time_s + self.move_time_s

    @property
    def overhead_s(self) -> float:
        """Simulated time in excess of an all-hot (pure DRAM) run."""
        return (
            self.cold_misses * (self.cold_access_s - self.hot_access_s)
            + self.move_time_s
        )

    def snapshot(self) -> "TierStats":
        return replace(self)

    def delta(self, since: "TierStats") -> "TierStats":
        """Accounting accrued after ``since`` (a prior :meth:`snapshot`)."""
        return replace(
            self,
            hot_hits=self.hot_hits - since.hot_hits,
            cold_misses=self.cold_misses - since.cold_misses,
            promotions=self.promotions - since.promotions,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "hot_hits": self.hot_hits,
            "cold_misses": self.cold_misses,
            "promotions": self.promotions,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
            "hot_time_s": self.hot_time_s,
            "cold_time_s": self.cold_time_s,
            "move_time_s": self.move_time_s,
            "overhead_s": self.overhead_s,
        }


class TieredEmbeddingTable(EmbeddingTable):
    """A two-tier :class:`EmbeddingTable`: identical numerics, priced tiers.

    The weight array, rng consumption, forward/backward math and saved
    state are exactly the base class's — training with this table is
    bit-identical to the flat table at any ``hot_fraction`` (pinned by
    ``tests/test_tiering.py``).  On top, every prepared lookup stream is
    folded into per-row frequency stats and run through the chunk-granular
    hot-tier cache, charging simulated seconds per access and migration.
    """

    #: Duck-type marker so the Trainer can spot tiered tables without
    #: importing this module (avoids a core -> tiering import cycle).
    is_tiered = True

    def __init__(
        self,
        spec: TableSpec,
        rng: np.random.Generator,
        pooling: PoolingType = PoolingType.SUM,
        init_scale: float | None = None,
        dtype: np.dtype | type = np.float64,
        tiering: TieredStoreConfig | None = None,
    ) -> None:
        super().__init__(spec, rng, pooling=pooling, init_scale=init_scale, dtype=dtype)
        self.tiering = tiering if tiering is not None else TieredStoreConfig()
        cfg = self.tiering
        self.chunk_rows = cfg.chunk_rows
        self.num_chunks = math.ceil(spec.hash_size / cfg.chunk_rows)
        self.capacity_chunks = cfg.capacity_chunks(spec.hash_size, self.bytes_per_row())
        #: Per-row access-frequency stats (EMA + window), published to the
        #: Trainer's metrics registry.
        self.freq = FreqStats(spec.hash_size, decay=cfg.ema_decay, window=cfg.window)
        # Chunk-granular stats drive admission/eviction scoring; kept
        # separate so row stats stay exact for observability.
        self._chunk_freq = FreqStats(
            self.num_chunks, decay=cfg.ema_decay, window=cfg.window
        )
        # Hot-tier residency.  "freq" admission is replayed per lookup
        # stream (see _admit) over a flag per chunk; lru/lfu recency
        # state is inherently sequential and lives in a PolicyCache.
        freq = cfg.policy == "freq"
        self._resident = np.zeros(self.num_chunks, dtype=bool) if freq else None
        self._cache = None if freq else PolicyCache(self.capacity_chunks, cfg.policy)
        self.cost_model = TierCostModel(hot=cfg.hot_tier, cold=cfg.cold_tier)
        row_b = self.bytes_per_row()
        self.stats = TierStats(
            hot_access_s=self.cost_model.hot_access_s(row_b),
            cold_access_s=self.cost_model.cold_access_s(row_b),
            chunk_move_s=self.cost_model.chunk_move_s(row_b * self.chunk_rows),
        )

    @property
    def hot_capacity_rows(self) -> int:
        return self.capacity_chunks * self.chunk_rows

    @property
    def hot_chunks(self) -> np.ndarray:
        """Ids of the chunks now in the hot tier, ascending."""
        if self._cache is None:
            return np.flatnonzero(self._resident)
        return np.sort(self._cache.keys())

    @property
    def hot_rows(self) -> int:
        return len(self.hot_chunks) * self.chunk_rows

    def record_accesses(self, rows: np.ndarray) -> None:
        """Fold one prepared lookup stream into stats, cache and pricing.

        This is the whole tiering mechanism: frequency bookkeeping, the
        chunk-id pass through the hot tier (hits stay hot, misses are
        served cold and considered for promotion), and the simulated
        cost of each outcome.  ``forward_batched`` calls it on the
        training path; the tier sweep drives it directly.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        kernels.check_bounds(rows, self.hash_size, what="rows")  # chunks inherit it
        self._account(rows, kernels.coalesce_plan(rows))

    def _account(self, rows: np.ndarray, row_plan: kernels.CoalescePlan) -> None:
        """:meth:`record_accesses` for a checked stream whose coalesce plan
        the caller holds: rows sort once (that plan), chunks once (here)."""
        if len(rows) == 0:
            return
        self.freq.fold(rows, row_plan)
        chunks = rows // self.chunk_rows
        plan = kernels.coalesce_plan(chunks)
        self._chunk_freq.fold(chunks, plan)
        if self._cache is None:
            hits, promotions = self._admit(plan.rows, plan.indptr[:-1], plan.order)
        else:
            before = self._cache.insertions
            hits = self._cache.access(chunks)
            promotions = self._cache.insertions - before
        self.stats.hot_hits += hits
        self.stats.cold_misses += len(rows) - hits
        self.stats.promotions += promotions

    def _admit(
        self, uniq: np.ndarray, start: np.ndarray, order: np.ndarray
    ) -> tuple[int, int]:
        """One stream through "freq" admission; ``(hits, promotions)``.

        Exactly ``PolicyCache("freq")`` driven access by access, at one
        heap operation per distinct missing chunk.  Scores are frozen for
        the whole stream (the stats were updated before it), which makes
        the per-access loop a streaming top-``capacity`` filter: the
        victim's score never decreases, so a chunk is admitted at most
        once, evicted at most once, and never re-admitted after being
        evicted or rejected.  Each touched chunk therefore hits exactly
        on the accesses strictly between its admission and its eviction.
        """
        n = len(order)
        was_hot = self._resident[uniq]
        # Stream position of the miss that promotes each touched chunk
        # (-1: hot on entry, n: never) and of the miss that evicts it.
        admit = np.where(was_hot, -1, n)
        evict = np.full(len(uniq), n)
        promotions = 0
        missing = np.flatnonzero(~was_hot)
        if len(missing) and self.capacity_chunks:
            score_of = self._chunk_freq.scores
            hot = np.flatnonzero(self._resident)
            # (score, chunk) tuples order like the per-access victim scan:
            # lowest score first, then smallest id.
            heap = list(zip(score_of(hot).tolist(), hot.tolist()))
            walk = missing[np.argsort(order[start[missing]])]  # by first occurrence
            chunks = uniq[walk]
            entries = zip(walk.tolist(), score_of(chunks).tolist(), chunks.tolist())
            admitted: list[int] = []  # indices into uniq, in admission order
            victims: list[int] = []  # chunk ids, one per admission once full
            free = self.capacity_chunks - len(heap)
            for j, score, chunk in itertools.islice(entries, free):
                heap.append((score, chunk))
                admitted.append(j)
            heapq.heapify(heap)
            for j, score, chunk in entries:
                if score > heap[0][0]:
                    victims.append(heapq.heapreplace(heap, (score, chunk))[1])
                    admitted.append(j)
            promotions = len(admitted)
            promoted = np.asarray(admitted, dtype=np.int64)
            gone = np.asarray(victims, dtype=np.int64)
            admit[promoted] = order[start[promoted]]
            self._resident[uniq[promoted]] = True
            self._resident[gone] = False  # after: a victim may be a promotee
            # Victims this stream touches stop hitting where they left.
            at = np.minimum(np.searchsorted(uniq, gone), len(uniq) - 1)
            touched = uniq[at] == gone
            evict[at[touched]] = admit[promoted[promotions - len(gone) :][touched]]
        # `order` lists stream positions chunk group by chunk group.
        group = np.repeat(np.arange(len(uniq)), np.diff(start, append=n))
        hits = np.count_nonzero((order > admit[group]) & (order < evict[group]))
        return int(hits), promotions

    def plan_forward(
        self, features: list[RaggedIndices], *, training: bool = True
    ) -> TablePlan:
        # Account on the *prepared* (truncated, bounds-checked) stream so
        # priced lookups match what the kernel actually gathers.  Accounting
        # happens at *plan* time: inline forwards build their plan right
        # here (same stream order as before), while the prefetch pipeline
        # builds plans ahead on its prep thread — the captured per-batch
        # ``tier_delta`` lets the Trainer publish stats for the batch it is
        # actually stepping, not whatever the prep thread touched since.
        plan = super().plan_forward(features, training=training)
        if training:
            before = self.stats.snapshot()
            # grad_plans[i] already groups exactly the stream it prices.
            for p, row_plan in zip(plan.prepared, plan.grad_plans):
                self._account(p.values, row_plan)
            plan = replace(plan, tier_delta=self.stats.delta(before))
        return plan
