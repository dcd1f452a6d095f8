"""Generic keyed cache with pluggable admission/eviction policies.

This is the one functional cache implementation in the repo.  The tiered
embedding store's hot tier (:class:`repro.tiering.store.TieredEmbeddingTable`)
is built on :class:`PolicyCache`, and ``tests/test_tiering.py``
cross-validates its steady-state hit rates against
:mod:`repro.tiering.analytic`.
(For ``"freq"`` the store replays a whole lookup stream in one batched
pass instead of calling in per access; this per-access implementation is
the reference ``tests/test_tiering.py`` holds that pass equal to.)

Policies:

* ``"lru"`` — evict the least recently used key (an
  :class:`~collections.OrderedDict` used as a recency list).
* ``"lfu"`` — evict the least frequently used key (per-key counts plus a
  lazy min-heap of ``(count, seq, key)`` candidates; stale heap entries
  are skipped on pop, so worst-case cost stays O(log n) per access).
* ``"freq"`` — frequency-*admission*: eviction picks the cached key with
  the lowest external score (a caller-supplied ``scorer``, e.g. a decayed
  access-frequency EMA from :class:`repro.tiering.freq.FreqStats`), and a
  missing key is only admitted when it outscores that victim.  This is
  the policy MTrainS-style tiered stores use — the hot set converges to
  the most-popular items and then stops churning, unlike insert-on-miss
  LRU/LFU which pay a movement on every miss.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Callable

import numpy as np

__all__ = ["PolicyCache", "POLICIES"]

POLICIES = ("lru", "lfu", "freq")


class PolicyCache:
    """A capacity-bounded key cache with a measured hit rate.

    ``touch(key)`` records one access (hit bookkeeping only); ``insert``
    admits a missing key, possibly evicting — the two-step split lets
    callers price hits, misses and movements separately.  ``access`` is
    the fused convenience loop (touch + insert-on-miss).
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "lru",
        scorer: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if policy == "freq" and scorer is None:
            raise ValueError("policy 'freq' requires a scorer")
        self.capacity = capacity
        self.policy = policy
        self.scorer = scorer
        self.hits = 0
        self.misses = 0
        #: Admissions that actually landed (each one is a tier movement).
        self.insertions = 0
        #: "freq"-policy misses whose key did not outscore the coldest
        #: cached key — the miss is served from the cold tier with no
        #: movement (the churn-avoidance that makes the policy cheap).
        self.rejections = 0
        self.evictions = 0
        self._store: OrderedDict[int, None] = OrderedDict()
        # LFU state: key -> access count, plus a lazy min-heap of
        # (count, seq, key) candidates.
        self._freq: dict[int, int] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: int) -> bool:
        return key in self._store

    def keys(self) -> np.ndarray:
        """Currently cached keys (insertion/recency order), int64."""
        return np.fromiter(self._store.keys(), dtype=np.int64, count=len(self._store))

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    # -- internals ----------------------------------------------------------

    def _lfu_push(self, key: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._freq[key], self._seq, key))

    def _evict_one(self) -> int | None:
        """Evict one key per policy (lru/lfu); returns the evicted key."""
        if self.policy == "lru":
            key, _ = self._store.popitem(last=False)
            return key
        while self._heap:
            count, _, key = heapq.heappop(self._heap)
            if key in self._store and self._freq.get(key) == count:
                del self._store[key]
                del self._freq[key]
                return key
        # Heap exhausted by stale entries: rebuild from live keys.
        for key in self._store:  # pragma: no cover - defensive
            self._lfu_push(key)
        if self._heap:  # pragma: no cover - defensive
            return self._evict_one()
        return None  # pragma: no cover - defensive

    def _freq_victim(self) -> tuple[int, float]:
        """Lowest-scored cached key (ties broken by smallest key)."""
        cached = self.keys()
        scores = np.asarray(self.scorer(cached), dtype=np.float64)
        idx = int(np.lexsort((cached, scores))[0])
        return int(cached[idx]), float(scores[idx])

    # -- access primitives ---------------------------------------------------

    def touch(self, key: int) -> bool:
        """Record one access; returns True on hit."""
        hit = key in self._store
        if hit:
            self.hits += 1
            if self.policy == "lru":
                self._store.move_to_end(key)
            elif self.policy == "lfu":
                self._freq[key] += 1
                self._lfu_push(key)
            # "freq": recency/count state lives in the external scorer.
        else:
            self.misses += 1
        return hit

    def insert(self, key: int) -> tuple[bool, int | None]:
        """Admit a (missing) key; returns ``(inserted, evicted_key)``.

        LRU/LFU always admit (insert-on-miss); "freq" only admits when the
        key outscores the coldest cached key, otherwise the insert is
        rejected and nothing moves.
        """
        if self.capacity == 0:
            return False, None
        evicted: int | None = None
        if len(self._store) >= self.capacity:
            if self.policy == "freq":
                victim, victim_score = self._freq_victim()
                if float(np.asarray(self.scorer(np.array([key])))[0]) <= victim_score:
                    self.rejections += 1
                    return False, None
                del self._store[victim]
                evicted = victim
            else:
                evicted = self._evict_one()
            self.evictions += 1
        self._store[key] = None
        if self.policy == "lfu":
            self._freq[key] = self._freq.get(key, 0) + 1
            self._lfu_push(key)
        self.insertions += 1
        return True, evicted

    # -- fused loop ----------------------------------------------------------

    def access(self, keys: np.ndarray) -> int:
        """One pass over an access stream (touch, insert on miss); returns
        hits."""
        batch_hits = 0
        for key in keys.tolist():
            if self.touch(key):
                batch_hits += 1
            else:
                self.insert(key)
        return batch_hits
