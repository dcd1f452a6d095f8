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
chunks are hot — for the default ``"freq"`` policy scored by one decayed
access frequency per chunk (:class:`~repro.tiering.freq.FreqStats`, the
only access statistic the store keeps) and applied to a whole lookup
stream in one batched pass; and a :class:`~repro.tiering.costs.TierCostModel`
prices every hit, miss and chunk migration into :class:`TierStats`.
"""

from __future__ import annotations

import heapq
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
        if not 0.0 < self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay must be in (0, 1], got {self.ema_decay}")

    def capacity_chunks(self, hash_size: int, bytes_per_row: float) -> int:
        """Whole chunks that fit in the hot tier for a given table.

        A budget that holds every row holds every chunk, a partial last
        chunk included.
        """
        if self.hot_bytes is not None:
            hot_rows = int(self.hot_bytes // bytes_per_row) if bytes_per_row else 0
        else:
            hot_rows = int(round(self.hot_fraction * hash_size))
        num_chunks = math.ceil(hash_size / self.chunk_rows)
        if hot_rows >= hash_size:
            return num_chunks
        return hot_rows // self.chunk_rows


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
    ``tests/test_tiering.py``).  On top, every prepared lookup stream's
    chunk ids are folded into one decayed access frequency per chunk and
    run through the chunk-granular hot-tier cache, charging simulated
    seconds per access and migration.
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
        # Hot-tier residency.  "freq" admission is replayed per lookup
        # stream (see _admit) over a flag per chunk, scored by the chunks'
        # decayed access frequency; lru/lfu recency state is inherently
        # sequential and lives in a PolicyCache, which keeps no scores.
        freq = cfg.policy == "freq"
        self._resident = np.zeros(self.num_chunks, dtype=bool) if freq else None
        self._chunk_freq = FreqStats(self.num_chunks, cfg.ema_decay) if freq else None
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
        """Fold one prepared lookup stream into scores, cache and pricing.

        This is the whole tiering mechanism: the chunk frequency, the
        chunk-id pass through the hot tier (hits stay hot, misses are
        served cold and considered for promotion), and the simulated
        cost of each outcome.  ``forward_batched`` calls it on the
        training path; the tier sweep drives it directly.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        kernels.check_bounds(rows, self.hash_size, what="rows")  # chunks inherit it
        self._account(rows)

    def _account(self, rows: np.ndarray) -> None:
        """:meth:`record_accesses` for a bounds-checked stream.  Under
        "freq" its chunk ids sort once, and that grouping feeds both the
        scores and admission."""
        if len(rows) == 0:
            return
        chunks = rows // self.chunk_rows
        if self._cache is None:
            plan = kernels.coalesce_plan(chunks)
            self._chunk_freq.fold(plan)
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

        Exactly ``PolicyCache("freq")`` driven access by access, decided
        by order statistics instead of a per-chunk heap walk.  Scores are
        frozen for the whole stream (the stats were updated before it),
        which makes the per-access loop a streaming top-``capacity``
        filter: the hot set always holds the ``capacity`` highest scores
        seen so far, so a missing chunk is admitted iff fewer than
        ``capacity`` of the scores before it (the hot set's on entry and
        the earlier missing chunks') are >= its own (:func:`_admissions`).
        The victim's ``(score, chunk)`` only rises, so a chunk is
        admitted at most once, evicted at most once, never re-admitted,
        and the victims are the lowest ``(score, chunk)`` pairs of the hot
        set and the admitted chunks, evicted in ascending order.  Each
        touched chunk therefore hits exactly on the accesses strictly
        between its admission and its eviction.
        """
        n = len(order)
        was_hot = self._resident[uniq]
        counts = np.diff(start, append=n)
        hits = int(counts[was_hot].sum())
        promotions = 0
        missing = np.flatnonzero(~was_hot)
        if len(missing) and self.capacity_chunks:
            score_of = self._chunk_freq.scores
            idle = self._resident.copy()
            idle[uniq] = False
            # The hot set: the chunks this stream leaves alone, then the rest.
            touched_hot = np.flatnonzero(was_hot)
            hot = np.concatenate([np.flatnonzero(idle), uniq[touched_hot]])
            hot_scores = score_of(hot)
            walk = missing[np.argsort(order[start[missing]])]  # by first occurrence
            chunks = uniq[walk]
            scores = score_of(chunks)
            taken = _admissions(hot_scores, scores, self.capacity_chunks)
            promoted = walk[taken]
            promotions = len(promoted)
            # A promotee hits on every access after the miss that admits it.
            hits += int(counts[promoted].sum()) - promotions
            self._resident[chunks[taken]] = True
            # Once the hot set is full, every admission evicts the lowest
            # (score, chunk) left: in turn, the lowest of all that entered.
            evicting = promotions - (self.capacity_chunks - len(hot))
            if evicting > 0:
                pool = np.concatenate([hot, chunks[taken]])
                # where each pool chunk sits in `uniq` (-1: not in this stream)
                at = np.concatenate(
                    [np.full(len(hot) - len(touched_hot), -1), touched_hot, promoted]
                )
                pool_scores = np.concatenate([hot_scores, scores[taken]])
                # Lowest score first, then smallest id, as the victim scan:
                # the order pairs each victim with its evictor, so ties
                # among the lowest evicting + 1 scores take the id sort.
                out = np.argsort(pool_scores)
                low = pool_scores[out[: evicting + 1]]
                if (low[1:] == low[:-1]).any():
                    out = np.lexsort((pool, pool_scores))
                out = out[:evicting]
                self._resident[pool[out]] = False  # after: a victim may be a promotee
                # Victims this stream touches stop hitting where they left:
                # at the miss that admits their evictor.
                gone = at[out]
                in_stream = gone >= 0
                left = order[start[promoted[promotions - evicting :][in_stream]]]
                gone = gone[in_stream]
                hits -= _accesses_after(order, start[gone], counts[gone], left)
        return hits, promotions

    def plan_forward(
        self, features: list[RaggedIndices], *, training: bool = True
    ) -> TablePlan:
        # Account on the *prepared* (truncated, bounds-checked) stream so
        # priced lookups match what the kernel actually gathers.  Accounting
        # happens at *plan* time, once per batch, in stream order — the
        # captured per-batch ``tier_delta`` lets the Trainer publish stats
        # for the batch it is stepping.
        plan = super().plan_forward(features, training=training)
        if training:
            before = self.stats.snapshot()
            for p in plan.prepared:
                self._account(p.values)
            plan = replace(plan, tier_delta=self.stats.delta(before))
        return plan


def _admissions(
    hot_scores: np.ndarray, scores: np.ndarray, capacity: int
) -> np.ndarray:
    """Which missing chunks of one stream "freq" admission takes.

    ``hot_scores`` are the hot set's scores on entry (at most
    ``capacity`` of them), ``scores`` the missing chunks' in order of
    first occurrence.  Entry ``i`` is taken iff fewer than ``capacity`` of
    ``hot_scores`` and ``scores[:i]`` are >= ``scores[i]``.  A full hot
    set alone rejects every entry that does not outscore its lowest
    score.  The rest are "open", and only open entries count against an
    open one: whatever is >= it is open too.  Two bounds on that count
    decide nearly every open entry at once: it is taken if fewer than its
    room are open before it, or are open and >= it anywhere in the
    stream.  From the first open entry neither bound decides, a heap of
    the ``capacity`` highest scores so far walks the open entries left.
    """
    floor = hot_scores.min() if len(hot_scores) == capacity else -np.inf
    open_ = np.flatnonzero(scores > floor)
    scores_open = scores[open_]
    # Open entry j is taken iff fewer than room[j] open ones before it are >= it.
    room = capacity - len(hot_scores) + np.searchsorted(
        np.sort(hot_scores), scores_open
    )
    larger = len(open_) - 1 - np.searchsorted(np.sort(scores_open), scores_open)
    sure = np.minimum(np.arange(len(open_)), larger) < room
    taken = np.zeros(len(scores), dtype=bool)
    taken[open_[sure]] = True
    if not sure.all():
        k = int(np.argmin(sure))  # the bounds make len(seen) >= capacity
        seen = np.concatenate([hot_scores, scores_open[:k]])
        heap = np.partition(seen, len(seen) - capacity)[len(seen) - capacity :]
        heap = heap.tolist()
        heapq.heapify(heap)
        # The heap's minimum only rises: what does not outscore it now never will.
        rest = np.flatnonzero(scores_open[k:] > heap[0]) + k
        won = []
        for j, score in zip(rest.tolist(), scores_open[rest].tolist()):
            if score > heap[0]:
                heapq.heapreplace(heap, score)
                won.append(j)
        taken[open_[k:]] = False
        taken[open_[won]] = True
    return taken


def _accesses_after(
    order: np.ndarray, start: np.ndarray, counts: np.ndarray, pos: np.ndarray
) -> int:
    """How many stream positions of the groups ``order[start[i]:][:counts[i]]``
    come after ``pos[i]``, summed over the groups."""
    first = np.repeat(start - np.cumsum(counts) + counts, counts)
    at = first + np.arange(len(first))
    return int(np.count_nonzero(order[at] > np.repeat(pos, counts)))

