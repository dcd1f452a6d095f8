"""The hybrid trainer's one sparse exchange, over real socket meshes.

Each rank runs its :class:`SparseExchange` end on a thread (the worker
calls it from its main thread); every owner's merged gradient must equal the
rank-order oracle ``SparseGrad.coalesce(concat(rows), concat(values))``
bit for bit — which fails if a slot offset or the "which ranks sent rows"
filter is off by one, or if a kept buffer hands a later step stale rows.
"""

from __future__ import annotations

import socket
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.embedding import SparseGrad
from repro.distributed.mp import Channel, ShardPlan
from repro.distributed.mp import channels, sparse_exchange
from repro.distributed.mp.sparse_exchange import SparseExchange

# distinct widths, so a payload split at the wrong offset cannot line up
DIMS = {"zipf_a": 3, "untouched": 4, "zipf_b": 5, "remote_only": 2, "zipf_c": 7}
HASH = 40  # small enough that Zipf streams collide across ranks


def local_grads(
    rank: int, world: int, dtype, draws: int = 30, dropped: tuple[str, ...] = ()
) -> dict[str, SparseGrad | None]:
    rng = np.random.default_rng([rank, draws])
    grads: dict[str, SparseGrad | None] = {}
    for name, dim in DIMS.items():
        touched = name.startswith("zipf") or (
            name == "remote_only" and rank == world - 1
        )
        if not touched or name in dropped:
            grads[name] = None
            continue
        rows = np.unique(rng.zipf(1.3, size=draws) % HASH)  # pop_grad's shape
        values = rng.standard_normal((len(rows), dim)).astype(dtype)
        grads[name] = SparseGrad(rows=rows, values=values)
    return grads


def plan_of(world: int, names) -> ShardPlan:
    # W-1 owners: from W=2 up the last rank owns no table, and
    # "remote_only" is touched by that non-owner alone
    return ShardPlan(
        owners={name: i % max(1, world - 1) for i, name in enumerate(names)},
        world=world,
    )


def run_steps(world: int, plan: ShardPlan, dims, dtype, steps) -> list[list[dict]]:
    """Every rank exchanges ``steps[s][rank]`` for each step ``s`` on one
    :class:`SparseExchange`; returns copies of each rank's merges, taken
    before its next exchange reuses the buffers."""
    meshes: list[dict[int, Channel]] = [{} for _ in range(world)]
    for i in range(world):
        for j in range(i + 1, world):
            meshes[i][j], meshes[j][i] = Channel.pair()
    merged: list = [None] * world

    def rank_main(rank: int) -> None:
        try:
            sx = SparseExchange(rank, world, plan, meshes[rank], dims, dtype)
            merged[rank] = [
                {
                    name: None
                    if g is None
                    else SparseGrad(rows=g.rows.copy(), values=g.values.copy())
                    for name, g in sx.exchange(step[rank]).items()
                }
                for step in steps
            ]
        except BaseException as err:  # noqa: BLE001 - reported by the assert below
            merged[rank] = err

    threads = [
        threading.Thread(target=rank_main, args=(r,), name=f"rank-{r}")
        for r in range(world)
    ]
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
        assert isinstance(merged[rank], list), merged[rank]
    return [[merged[rank][s] for rank in range(world)] for s in range(len(steps))]


def assert_rank_order_merge(
    plan: ShardPlan, local: list[dict], merged: list[dict], dtype
) -> None:
    """``local[r]`` is rank r's gradients, ``merged[r]`` what rank r got."""
    for rank, got_all in enumerate(merged):
        assert list(got_all) == plan.owned(rank)
        for name, got in got_all.items():
            parts = [g[name] for g in local if g[name] is not None]
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("world", [1, 2, 3, 4])
def test_merged_owner_grads_equal_rank_order_coalesce(world, dtype):
    plan = plan_of(world, DIMS)
    # the second step ships fewer rows and drops a table, so a merge
    # that read past this step's counts in a kept buffer would differ
    steps = [
        [local_grads(r, world, dtype) for r in range(world)],
        [
            local_grads(r, world, dtype, draws=12, dropped=("zipf_b",))
            for r in range(world)
        ],
    ]
    merged = run_steps(world, plan, DIMS, dtype, steps)
    for local, got in zip(steps, merged):
        assert_rank_order_merge(plan, local, got, dtype)
    assert merged[0][plan.owners["untouched"]]["untouched"] is None
    assert merged[1][plan.owners["zipf_b"]]["zipf_b"] is None
    if world > 1:
        assert plan.owned(world - 1) == []
        assert np.array_equal(
            merged[0][plan.owners["remote_only"]]["remote_only"].values,
            steps[0][world - 1]["remote_only"].values,
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("world", [2, 3])
def test_payloads_past_the_socket_buffer_and_the_pump_chunk(world, dtype):
    dims = {"wide_a": 3, "wide_b": 5}
    plan = ShardPlan(owners=dict.fromkeys(dims, 0), world=world)
    local = []
    for rank in range(world):
        rng = np.random.default_rng(rank)
        local.append({
            name: SparseGrad(
                rows=(rows := np.unique(rng.integers(0, 1 << 20, size=30_000))),
                values=rng.standard_normal((len(rows), dim)).astype(dtype),
            )
            for name, dim in dims.items()
        })
    # a sender's payload: both tables' row ids, then both value matrices
    sizes = [g.rows.nbytes for g in local[1].values()]
    sizes += [g.values.nbytes for g in local[1].values()]
    ends = np.cumsum(sizes)
    a, b = socket.socketpair()
    with a, b:
        in_flight = a.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        in_flight += b.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    assert ends[-1] > max(in_flight, channels._CHUNK)
    assert channels._CHUNK not in ends  # a buffer straddles the first chunk
    (merged,) = run_steps(world, plan, dims, dtype, [local])
    assert_rank_order_merge(plan, local, merged, dtype)


def test_buffer_lists_travel_as_one_stream_split_anywhere():
    """More buffers than one sendmsg names, cut at other offsets on the
    receiving side, and more bytes than one pump chunk."""
    data = np.random.default_rng(0).integers(0, 256, size=3 << 20, dtype=np.uint8)
    cuts = np.random.default_rng(1).integers(0, len(data), size=(2, 3 * channels._IOV))
    sent = np.split(data, np.sort(cuts[0]))
    got = np.zeros_like(data)
    a, b = Channel.pair()
    try:
        channels.transfer([(a, sent)], [(b, np.split(got, np.sort(cuts[1])))])
    finally:
        a.close()
        b.close()
    assert np.array_equal(got, data)


@pytest.mark.parametrize("world", [2, 3])
def test_each_peer_round_is_a_header_and_a_payload_transfer(world, monkeypatch):
    """The traffic ``predict_step_time``'s sparse link charges: per peer,
    one header round and one payload round."""
    calls: list[str] = []

    def counted(sends, recvs):
        calls.append(threading.current_thread().name)
        channels.transfer(sends, recvs)

    monkeypatch.setattr(sparse_exchange, "transfer", counted)
    steps = [[local_grads(r, world, np.float64) for r in range(world)]]
    run_steps(world, plan_of(world, DIMS), DIMS, np.float64, steps)
    assert Counter(calls) == {f"rank-{r}": 2 * (world - 1) for r in range(world)}
