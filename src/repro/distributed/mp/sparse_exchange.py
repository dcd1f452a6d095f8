"""The hybrid trainer's sparse-gradient exchange: wire format and merge.

Every worker ships each table's local sparse gradient to the table's
*owner* rank, which merges the per-rank contributions in **rank order**
— ``SparseGrad.coalesce(concat(rows), concat(values))``, the association
``EmbeddingTable.pop_grad`` uses for several contributions — so the
owner's update is bit-identical to the serial trainer's.

Rank r meets each peer twice, in W-1 rounds each: in round ``off`` it
sends to ``(r+off) % W`` and receives from ``(r-off) % W`` — a
permutation per round, so no two ranks ever block on each other.

* The **header** rounds come first: one int64 row count per table the
  destination owns, in its fixed table order
  (:meth:`~.shards.ShardPlan.owned`).  Both ends know its length, so it
  has no length prefix.
* Then the **payload** rounds: the row ids, then the gradient matrices,
  of those tables that have any row, sent straight from the gradients'
  own arrays.  Knowing every rank's counts, the owner receives each
  peer's part into its rank-order slot of one rows buffer and one values
  buffer per owned table, which the exchange keeps and grows on demand;
  its own part is copied into its slot, so each merge coalesces one
  contiguous run with no concatenation.

This module is the only place that knows the frame layout; :mod:`.predict`
times a round's own code (:meth:`SparseExchange.header`, ``payload``,
``slots``) for its cost model.
"""

from __future__ import annotations

import numpy as np

from ...core.embedding import SparseGrad
from .channels import Channel, transfer
from .shards import ShardPlan

__all__ = ["SparseExchange"]


class SparseExchange:
    """One worker's end of the exchange, for the tables it owns.

    :meth:`exchange` is one blocking collective, called by every rank once
    per step from the thread that owns the mesh channels.  The receive
    buffers are kept between steps, so a merged gradient may be a view of
    them: it is valid until the next :meth:`exchange`.
    """

    def __init__(
        self,
        rank: int,
        world: int,
        plan: ShardPlan,
        mesh: dict[int, Channel],
        table_dims: dict[str, int],
        dtype,
    ) -> None:
        self.rank = rank
        self.world = world
        self.plan = plan
        self.mesh = mesh
        self.owned = plan.owned(rank)
        # counts[q, i]: rows rank q ships for owned table i this step
        self.counts = np.zeros((world, len(self.owned)), dtype=np.int64)
        self.rows = {name: np.empty(0, dtype=np.int64) for name in self.owned}
        self.values = {
            name: np.empty((0, table_dims[name]), dtype=dtype) for name in self.owned
        }

    def header(self, local: dict[str, SparseGrad | None], dst: int) -> np.ndarray:
        """The row count of each table ``dst`` owns, in its order."""
        grads = [local[name] for name in self.plan.owned(dst)]
        return np.array([0 if g is None else len(g.rows) for g in grads], np.int64)

    def payload(
        self, local: dict[str, SparseGrad | None], dst: int
    ) -> list[np.ndarray]:
        """The row ids, then the values, of each table ``dst`` owns that
        has any row: the gradients' own arrays."""
        grads = [local[name] for name in self.plan.owned(dst)]
        sent = [g for g in grads if g is not None and len(g.rows)]
        return [g.rows for g in sent] + [g.values for g in sent]

    def slots(self, src: int) -> list[np.ndarray]:
        """Where ``src``'s payload lands: its rank-order slot of each kept
        buffer, laid out as :meth:`payload` sends (every count known)."""
        parts = [
            (name, lo, lo + n)
            for name, lo, n in zip(
                self.owned, self.counts[:src].sum(axis=0), self.counts[src]
            )
            if n
        ]
        return [self.rows[name][lo:hi] for name, lo, hi in parts] + [
            self.values[name][lo:hi] for name, lo, hi in parts
        ]

    def reserve(self) -> None:
        """Grow every kept buffer too small for this step's counts."""
        for name, total in zip(self.owned, self.counts.sum(axis=0)):
            if total > len(self.rows[name]):
                cap = max(total, 2 * len(self.rows[name]))
                values = self.values[name]
                self.rows[name] = np.empty(cap, dtype=np.int64)
                self.values[name] = np.empty((cap, values.shape[1]), values.dtype)

    def exchange(
        self, local: dict[str, SparseGrad | None]
    ) -> dict[str, SparseGrad | None]:
        """Ship this rank's gradient of every table to the table's owner;
        return the rank-order merge of all ranks' gradients for each table
        this rank owns (``None`` where no rank touched the table)."""
        counts = self.counts
        counts[self.rank] = self.header(local, self.rank)
        rounds = [
            ((self.rank + off) % self.world, (self.rank - off) % self.world)
            for off in range(1, self.world)
        ]
        for dst, src in rounds:
            transfer(
                [(self.mesh[dst], self.header(local, dst))],
                [(self.mesh[src], counts[src])],
            )
        self.reserve()
        for dst, src in rounds:
            transfer(
                [(self.mesh[dst], self.payload(local, dst))],
                [(self.mesh[src], self.slots(src))],
            )

        merged: dict[str, SparseGrad | None] = {}
        starts = counts[: self.rank].sum(axis=0)
        for i, (name, lo) in enumerate(zip(self.owned, starts)):
            grad = local[name]
            present = np.flatnonzero(counts[:, i])
            total = int(counts[:, i].sum())
            if not total:
                merged[name] = None
            elif len(present) == 1 and present[0] == self.rank:
                merged[name] = grad
            else:
                rows, values = self.rows[name][:total], self.values[name][:total]
                if grad is not None:
                    rows[lo : lo + len(grad.rows)] = grad.rows
                    values[lo : lo + len(grad.rows)] = grad.values
                # a single contribution passes through uncoalesced, as in
                # EmbeddingTable.pop_grad
                merged[name] = (
                    SparseGrad(rows=rows, values=values)
                    if len(present) == 1
                    else SparseGrad.coalesce(rows, values)
                )
        return merged
