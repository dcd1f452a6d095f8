"""The hybrid trainer's one sparse exchange, over real socket meshes.

Each rank runs its :class:`SparseExchange` end on a thread (the worker
calls it from its main thread); every owner's merged gradient must equal the
rank-order oracle ``SparseGrad.coalesce(concat(rows), concat(values))``
bit for bit — which fails if a value-frame offset or the "which ranks
sent rows" filter is off by one.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.embedding import SparseGrad
from repro.distributed.mp import Channel, ShardPlan
from repro.distributed.mp.sparse_exchange import SparseExchange

# distinct widths, so a frame split at the wrong offset cannot line up
DIMS = {"zipf_a": 3, "untouched": 4, "zipf_b": 5, "remote_only": 2, "zipf_c": 7}
HASH = 40  # small enough that Zipf streams collide across ranks


def local_grads(rank: int, world: int, dtype) -> dict[str, SparseGrad | None]:
    rng = np.random.default_rng(100 + rank)
    grads: dict[str, SparseGrad | None] = {}
    for name, dim in DIMS.items():
        touched = name.startswith("zipf") or (
            name == "remote_only" and rank == world - 1
        )
        if not touched:
            grads[name] = None
            continue
        rows = np.unique(rng.zipf(1.3, size=30) % HASH)  # pop_grad's shape
        values = rng.standard_normal((len(rows), dim)).astype(dtype)
        grads[name] = SparseGrad(rows=rows, values=values)
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("world", [1, 2, 3, 4])
def test_merged_owner_grads_equal_rank_order_coalesce(world, dtype):
    # W-1 owners: from W=2 up the last rank owns no table, and
    # "remote_only" is touched by that non-owner alone
    plan = ShardPlan(
        owners={name: i % max(1, world - 1) for i, name in enumerate(DIMS)},
        world=world,
    )
    meshes: list[dict[int, Channel]] = [{} for _ in range(world)]
    for i in range(world):
        for j in range(i + 1, world):
            meshes[i][j], meshes[j][i] = Channel.pair()
    local = [local_grads(r, world, dtype) for r in range(world)]
    merged: list = [None] * world

    def rank_main(rank: int) -> None:
        try:
            sx = SparseExchange(rank, world, plan, meshes[rank], DIMS, dtype)
            before = dict(vars(sx))
            merged[rank] = sx.exchange(local[rank])
            assert vars(sx) == before  # no per-step state
        except BaseException as err:  # noqa: BLE001 - reported by the assert below
            merged[rank] = err

    threads = [threading.Thread(target=rank_main, args=(r,)) for r in range(world)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        for mesh in meshes:
            for ch in mesh.values():
                ch.close()

    for rank in range(world):
        assert isinstance(merged[rank], dict), merged[rank]
        assert list(merged[rank]) == plan.owned(rank)
        for name, got in merged[rank].items():
            parts = [local[r][name] for r in range(world) if local[r][name] is not None]
            if not parts:
                assert got is None
                continue
            want = SparseGrad.coalesce(
                np.concatenate([g.rows for g in parts]),
                np.concatenate([g.values for g in parts]),
            )
            assert np.array_equal(got.rows, want.rows)
            assert got.values.dtype == want.values.dtype == dtype
            assert np.array_equal(got.values, want.values)
    assert merged[plan.owners["untouched"]]["untouched"] is None
    if world > 1:
        assert plan.owned(world - 1) == []
        assert np.array_equal(
            merged[plan.owners["remote_only"]]["remote_only"].values,
            local[world - 1]["remote_only"].values,
        )
