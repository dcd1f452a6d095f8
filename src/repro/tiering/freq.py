"""Per-row access-frequency statistics gathered during training.

Tier admission (MTrainS-style) needs to know which rows are hot *right
now*.  :class:`FreqStats` tracks three signals over the row-access stream:

* cumulative access counts,
* an exponentially-decayed access frequency (EMA) — decayed **per access**
  rather than per batch, so the statistic is a pure function of the global
  access stream and therefore invariant to how the stream is segmented
  into batches (pinned by hypothesis tests in
  ``tests/test_tiering_freq.py``),
* a sliding window of the last ``window`` accesses (a circular buffer),
  giving exact recent-popularity counts.

The EMA uses *lazy decay*: each row stores its value as of its own last
access position; :meth:`scores` re-references values to the current stream
position on demand.  Updates are fully vectorized (the stable grouping of
:func:`repro.core.kernels.coalesce_plan` + segmented reduction), so
recording a batch costs O(L log L) regardless of how many distinct rows it
touches.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import CoalescePlan, coalesce_plan

__all__ = ["FreqStats"]


class FreqStats:
    """Frequency statistics over a stream of item accesses in ``[0, n)``."""

    def __init__(self, num_items: int, decay: float = 0.999, window: int = 4096) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.num_items = num_items
        self.decay = float(decay)
        self.window = int(window)
        #: Total accesses recorded so far (the global stream position).
        self.pos = 0
        #: Cumulative access counts per item.
        self.counts = np.zeros(num_items, dtype=np.int64)
        #: Exact access counts within the trailing ``window`` accesses.
        self.win_counts = np.zeros(num_items, dtype=np.int64)
        # Lazy-decay EMA state: value as of the item's last access, and
        # that access's (1-based) global position.  Unseen items keep
        # ema == 0, which re-references to 0 for any gap.
        self._ema = np.zeros(num_items, dtype=np.float64)
        self._last = np.zeros(num_items, dtype=np.int64)
        # Circular buffer of the last `window` accessed item ids (-1 =
        # slot never written).
        self._ring = np.full(self.window, -1, dtype=np.int64)
        self._ring_pos = 0

    def record(self, items: np.ndarray) -> None:
        """Fold one batch of accesses (in stream order) into the stats."""
        items = np.asarray(items, dtype=np.int64).ravel()
        if len(items) and (items.min() < 0 or items.max() >= self.num_items):
            raise IndexError(
                f"items must be in [0, {self.num_items}), "
                f"got range [{items.min()}, {items.max()}]"
            )
        self.fold(items, coalesce_plan(items))

    def fold(self, items: np.ndarray, plan: CoalescePlan) -> None:
        """:meth:`record` for an int64 stream known to be in range whose
        grouping ``plan = coalesce_plan(items)`` the caller already holds
        (a tiered table's lookup plan carries it), so nothing is sorted
        here: ``plan.rows`` are the distinct items ascending,
        ``plan.order`` the batch positions sorted by (item, position)."""
        n = len(items)
        if n == 0:
            return
        uniq, order, start = plan.rows, plan.order, plan.indptr[:-1]
        counts = np.diff(plan.indptr)
        self.counts[uniq] += counts

        # EMA: for item r with in-batch positions q_1 < ... < q_k and
        # previous state (f, q_old):
        #   f_new = f * d^(q_k - q_old) + sum_j d^(q_k - q_j)
        # Exponents are taken relative to q_k, so they never overflow;
        # long gaps underflow to 0.0, which is the correct limit.
        s_pos = self.pos + 1 + order
        last = s_pos[start + counts - 1]
        with np.errstate(under="ignore"):
            weights = self.decay ** (np.repeat(last, counts) - s_pos).astype(np.float64)
            contrib = np.add.reduceat(weights, start)
            gap = (last - self._last[uniq]).astype(np.float64)
            self._ema[uniq] = self._ema[uniq] * self.decay**gap + contrib
        self._last[uniq] = last

        # Sliding window: overwrite the oldest slots of the ring.  A batch
        # at least `window` long replaces the whole window, so only its
        # tail matters — both paths leave state identical to feeding the
        # stream one access at a time.
        w = self.window
        if n >= w:
            tail = items[n - w :]
            self.win_counts[:] = 0
            np.add.at(self.win_counts, tail, 1)
            self._ring[:] = tail
            self._ring_pos = 0
        else:
            idx = (self._ring_pos + np.arange(n)) % w
            old = self._ring[idx]
            valid = old >= 0
            if valid.any():
                np.add.at(self.win_counts, old[valid], -1)
            self._ring[idx] = items
            self.win_counts[uniq] += counts
            self._ring_pos = (self._ring_pos + n) % w
        self.pos += n

    def scores(self, items: np.ndarray | None = None) -> np.ndarray:
        """Decayed access frequency, re-referenced to the current position.

        Directly comparable across items (unlike the internal lazy state):
        ``scores()[i]`` is the EMA item ``i`` would hold if every value had
        been decayed through the full stream.  Used as the admission
        scorer of the "freq" :class:`~repro.tiering.policy.PolicyCache`.
        """
        if items is None:
            ema, last = self._ema, self._last
        else:
            items = np.asarray(items, dtype=np.int64)
            ema, last = self._ema[items], self._last[items]
        with np.errstate(under="ignore"):
            return ema * self.decay ** (self.pos - last).astype(np.float64)

    def topk(self, k: int) -> np.ndarray:
        """The ``k`` hottest items by decayed frequency.

        Deterministic: ties break toward the smaller item id.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        scores = self.scores()
        order = np.lexsort((np.arange(self.num_items), -scores))
        return order[: min(k, self.num_items)]
