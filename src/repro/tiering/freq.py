"""The decayed access frequency that tier admission scores by.

Tier admission (MTrainS-style) needs to know which chunks are hot *right
now*.  :class:`FreqStats` keeps one signal over the access stream: an
exponentially-decayed access frequency (EMA), decayed **per access**
rather than per batch, so the statistic is a pure function of the global
access stream and therefore invariant to how the stream is segmented into
batches (pinned by hypothesis tests in ``tests/test_tiering_freq.py``).

The EMA uses *lazy decay*: each item stores its value as of its own last
access position; :meth:`scores` re-references values to the current stream
position on demand.  Updates are fully vectorized (the stable grouping of
:func:`repro.core.kernels.coalesce_plan` + segmented reduction), so
recording a batch costs O(L log L) regardless of how many distinct items it
touches.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import CoalescePlan, coalesce_plan

__all__ = ["FreqStats"]


class FreqStats:
    """Decayed access frequency over a stream of item accesses in ``[0, n)``."""

    def __init__(self, num_items: int, decay: float = 0.999) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.num_items = num_items
        self.decay = float(decay)
        #: Total accesses recorded so far (the global stream position).
        self.pos = 0
        # Lazy-decay EMA state: value as of the item's last access, and
        # that access's (1-based) global position.  Unseen items keep
        # ema == 0, which re-references to 0 for any gap.
        self._ema = np.zeros(num_items, dtype=np.float64)
        self._last = np.zeros(num_items, dtype=np.int64)

    def record(self, items: np.ndarray) -> None:
        """Fold one batch of accesses (in stream order) into the stats."""
        items = np.asarray(items, dtype=np.int64).ravel()
        if len(items) and (items.min() < 0 or items.max() >= self.num_items):
            raise IndexError(
                f"items must be in [0, {self.num_items}), "
                f"got range [{items.min()}, {items.max()}]"
            )
        self.fold(coalesce_plan(items))

    def fold(self, plan: CoalescePlan) -> None:
        """:meth:`record` for an in-range int64 stream whose grouping
        ``plan = coalesce_plan(items)`` the caller already holds (a tiered
        table groups its chunk stream once), so nothing is sorted here:
        ``plan.rows`` are the distinct items ascending, ``plan.order`` the
        batch positions sorted by (item, position)."""
        n = len(plan.order)
        if n == 0:
            return
        uniq, order, start = plan.rows, plan.order, plan.indptr[:-1]
        counts = np.diff(plan.indptr)
        # For item r with in-batch positions q_1 < ... < q_k and previous
        # state (f, q_old):
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
