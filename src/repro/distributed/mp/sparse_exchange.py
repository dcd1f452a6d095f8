"""The hybrid trainer's sparse-gradient exchange: wire format and merge.

Every worker ships each table's local sparse gradient to the table's
*owner* rank, which merges the per-rank contributions in **rank order**
— ``SparseGrad.coalesce(concat(rows), concat(values))``, the association
``EmbeddingTable.pop_grad`` uses for several contributions — so the
owner's update is bit-identical to the serial trainer's.

The exchange is split so that only raw value bytes sit on a step's
critical path.  Two frames per (step, peer), always in the destination
owner's fixed table order (:meth:`~.shards.ShardPlan.owned`):

* the **id frame** (:func:`encode_ids`) — each table's touched row ids,
  known at *plan* time (no weights involved, see
  :meth:`~repro.core.embedding.TablePlan.touched_rows`), so it travels a
  step ahead and the owner pre-builds the merge
  (:class:`~repro.core.kernels.CoalescePlan`) while it waits;
* the **value frame** (:func:`encode_values`) — the gradient matrices of
  the tables that have any row, back to back with no header: both sides
  know every size from the id frame.

In round ``off`` of W-1, rank r sends to ``(r+off) % W`` and receives
from ``(r-off) % W`` — a permutation per round, so no two ranks ever
block on each other.  This module is the only place that knows the frame
layout; :mod:`.predict` times these same functions for its cost model.
"""

from __future__ import annotations

import pickle

import numpy as np

from ...core.embedding import SparseGrad
from ...core.kernels import CoalescePlan, coalesce_apply, coalesce_plan
from .channels import Channel, exchange_frames
from .shards import ShardPlan

__all__ = [
    "SparseExchange", "decode_ids", "decode_values", "encode_ids", "encode_values",
]


def encode_ids(rows: dict[str, np.ndarray], names: list[str]) -> bytes:
    return pickle.dumps(
        {name: rows[name] for name in names}, protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_ids(payload) -> dict[str, np.ndarray]:
    return pickle.loads(payload)


def encode_values(local: dict[str, SparseGrad | None], names: list[str]) -> bytes:
    return b"".join(
        memoryview(np.ascontiguousarray(local[name].values)).cast("B")
        for name in names
        if local[name] is not None
    )


def decode_values(
    payload, ids: dict[str, np.ndarray], dims: dict[str, int], dtype: np.dtype
) -> dict[str, np.ndarray]:
    """Split a value frame into per-table matrices (views of ``payload``).

    ``ids`` is the sender's decoded id frame of the same step: it fixes
    the table order and every matrix's row count; a table with no rows
    has no bytes in the frame.
    """
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, rows in ids.items():
        if not len(rows):
            continue
        count = len(rows) * dims[name]
        out[name] = np.frombuffer(
            payload, dtype=dtype, count=count, offset=offset
        ).reshape(len(rows), dims[name])
        offset += count * dtype.itemsize
    return out


class SparseExchange:
    """One worker's end of the exchange, for the tables it owns.

    Both halves touch the mesh channels, so a worker must run them from
    one thread, in the same order on every rank — the hybrid trainer
    queues them on its :class:`~.allreduce.GradReducer` communication
    thread, FIFO with the dense buckets::

        [ids g+1] [top bucket g] [values g] [bottom bucket g]

    ``_pending`` and ``_merged`` are therefore exchange-thread state; the
    caller collects :meth:`take_merged` strictly after that thread has
    finished step ``gstep``'s :meth:`exchange_values`.
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
        self.table_dims = table_dims
        self.dtype = np.dtype(dtype)
        #: step -> (id frames by rank, owned table -> (ranks with rows, merge))
        self._pending: dict[int, tuple[list, dict]] = {}
        self._merged: dict[int, dict[str, SparseGrad | None]] = {}

    def _rounds(self):
        for off in range(1, self.world):
            yield (self.rank + off) % self.world, (self.rank - off) % self.world

    def exchange_ids(self, gstep: int, rows_local: dict[str, np.ndarray]) -> None:
        """Ship step ``gstep``'s touched rows to the owners and pre-build
        the rank-order merge of every owned table."""
        by_rank: list[dict[str, np.ndarray] | None] = [None] * self.world
        by_rank[self.rank] = rows_local
        for dst, src in self._rounds():
            (payload,) = exchange_frames(
                [(self.mesh[dst], encode_ids(rows_local, self.plan.owned(dst)))],
                [self.mesh[src]],
            )
            by_rank[src] = decode_ids(payload)
        merges: dict[str, tuple[list[int], CoalescePlan | None]] = {}
        for name in self.plan.owned(self.rank):
            present = [r for r in range(self.world) if len(by_rank[r][name])]
            merge = None
            if len(present) > 1:
                merge = coalesce_plan(
                    np.concatenate([by_rank[r][name] for r in present])
                )
            merges[name] = (present, merge)
        self._pending[gstep] = (by_rank, merges)

    def exchange_values(
        self, gstep: int, local: dict[str, SparseGrad | None]
    ) -> None:
        """Ship step ``gstep``'s gradient values and merge the owned
        tables with the plans :meth:`exchange_ids` prepared."""
        ids, merges = self._pending.pop(gstep)
        values: list[dict[str, np.ndarray] | None] = [None] * self.world
        values[self.rank] = {
            name: g.values for name, g in local.items() if g is not None
        }
        for dst, src in self._rounds():
            (payload,) = exchange_frames(
                [(self.mesh[dst], encode_values(local, self.plan.owned(dst)))],
                [self.mesh[src]],
            )
            values[src] = decode_values(
                payload, ids[src], self.table_dims, self.dtype
            )
        merged: dict[str, SparseGrad | None] = {}
        for name, (present, merge) in merges.items():
            if not present:
                merged[name] = None
            elif len(present) == 1:
                # a single contribution passes through uncoalesced, as in
                # EmbeddingTable.pop_grad
                q = present[0]
                merged[name] = (
                    local[name]
                    if q == self.rank
                    else SparseGrad(rows=ids[q][name], values=values[q][name])
                )
            else:
                vals = np.concatenate([values[q][name] for q in present])
                merged[name] = SparseGrad(
                    rows=merge.rows, values=coalesce_apply(merge, vals)
                )
        self._merged[gstep] = merged

    def take_merged(self, gstep: int) -> dict[str, SparseGrad | None]:
        """Step ``gstep``'s merged gradients of the owned tables."""
        return self._merged.pop(gstep)
