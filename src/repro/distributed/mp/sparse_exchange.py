"""The hybrid trainer's sparse-gradient exchange: wire format and merge.

Every worker ships each table's local sparse gradient to the table's
*owner* rank, which merges the per-rank contributions in **rank order**
— ``SparseGrad.coalesce(concat(rows), concat(values))``, the association
``EmbeddingTable.pop_grad`` uses for several contributions — so the
owner's update is bit-identical to the serial trainer's.

Two frames per peer, always in the destination owner's fixed table order
(:meth:`~.shards.ShardPlan.owned`):

* the **id frame** (:func:`encode_ids`) — the row ids of each table's
  gradient (none for a table this rank did not touch);
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


_NO_ROWS = np.empty(0, dtype=np.int64)


class SparseExchange:
    """One worker's end of the exchange, for the tables it owns.

    Stateless between steps: :meth:`exchange` is one blocking collective,
    called by every rank once per step from the thread that owns the mesh
    channels.
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

    def exchange(
        self, local: dict[str, SparseGrad | None]
    ) -> dict[str, SparseGrad | None]:
        """Ship this rank's gradient of every table to the table's owner;
        return the rank-order merge of all ranks' gradients for each table
        this rank owns (``None`` where no rank touched the table)."""
        ids: list[dict[str, np.ndarray] | None] = [None] * self.world
        values: list[dict[str, np.ndarray] | None] = [None] * self.world
        ids[self.rank] = {
            name: _NO_ROWS if g is None else g.rows for name, g in local.items()
        }
        values[self.rank] = {
            name: g.values for name, g in local.items() if g is not None
        }
        for off in range(1, self.world):
            dst, src = (self.rank + off) % self.world, (self.rank - off) % self.world
            owned = self.plan.owned(dst)
            (payload,) = exchange_frames(
                [(self.mesh[dst], encode_ids(ids[self.rank], owned))], [self.mesh[src]]
            )
            ids[src] = decode_ids(payload)
            (payload,) = exchange_frames(
                [(self.mesh[dst], encode_values(local, owned))], [self.mesh[src]]
            )
            values[src] = decode_values(payload, ids[src], self.table_dims, self.dtype)
        merged: dict[str, SparseGrad | None] = {}
        for name in self.plan.owned(self.rank):
            present = [r for r in range(self.world) if len(ids[r][name])]
            if not present:
                merged[name] = None
            elif len(present) == 1:
                # a single contribution passes through uncoalesced, as in
                # EmbeddingTable.pop_grad
                q = present[0]
                merged[name] = SparseGrad(rows=ids[q][name], values=values[q][name])
            else:
                merged[name] = SparseGrad.coalesce(
                    np.concatenate([ids[q][name] for q in present]),
                    np.concatenate([values[q][name] for q in present]),
                )
        return merged
