"""Property-based correctness of the ring/ordered allreduce wire algorithms.

The algorithms run here exactly as in production — over real socketpair
:class:`~repro.distributed.mp.Channel` rings — but with ranks on threads
instead of processes (the wire protocol cannot tell the difference, and
threads let hypothesis drive hundreds of cases cheaply).  The properties
pin the *reduction order*, not just the values:

* ``ordered`` is bit-for-bit the left-associative rank-order sum — the
  association the serial trainer uses, hence the bit-determinism of the
  hybrid trainer.
* ``ring`` is bit-for-bit :func:`ring_ordered_sum` (its declared rotated
  association), tolerance-close to ``np.sum``, and exactly ``np.sum`` at
  world 2 where two-term sums are order-insensitive.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.mp import (
    Channel,
    ChannelClosed,
    PackedAllreduce,
    ordered_allreduce,
    ordered_sum,
    ring_allreduce,
    ring_chunks,
    ring_ordered_sum,
)

ALGOS = {"ordered": ordered_allreduce, "ring": ring_allreduce}


def make_ring(world: int):
    """``(left, right)`` channel pairs per rank, ring-connected."""
    pairs = [Channel.pair() for _ in range(world)]  # pairs[i]: i -> i+1
    ring = []
    for rank in range(world):
        right = pairs[rank][0]
        left = pairs[(rank - 1) % world][1]
        ring.append((left, right))
    return ring, [c for p in pairs for c in p]


def run_ranks(world: int, rank_main) -> None:
    """``rank_main(rank, left, right)`` on one thread per rank, over sockets."""
    ring, channels = make_ring(world)
    try:
        with ThreadPoolExecutor(max_workers=world) as pool:
            for f in [pool.submit(rank_main, r, *ring[r]) for r in range(world)]:
                f.result(timeout=30)
    finally:
        for c in channels:
            c.close()


def wire_allreduce(mode: str, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Run the real wire algorithm over one flat buffer per rank."""
    world = len(arrays)
    bufs = [a.copy() for a in arrays]

    def rank_main(rank: int, left, right):
        scratch = np.empty_like(bufs[rank])
        ALGOS[mode](rank, world, left, right, bufs[rank], scratch)

    run_ranks(world, rank_main)
    return bufs


grad_arrays = st.integers(2, 8).flatmap(
    lambda world: st.tuples(
        st.just(world),
        st.integers(1, 97),
        st.integers(0, 2**31 - 1),
    )
).map(
    lambda t: [
        np.random.default_rng(t[2] + r).standard_normal(t[1]) * 10.0 ** (r % 5 - 2)
        for r in range(t[0])
    ]
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWireAlgorithms:
    @_SETTINGS
    @given(arrays=grad_arrays)
    def test_ordered_is_serial_accumulation_bitwise(self, arrays):
        expected = ordered_sum(arrays)
        for buf in wire_allreduce("ordered", arrays):
            np.testing.assert_array_equal(buf, expected, strict=True)

    @_SETTINGS
    @given(arrays=grad_arrays)
    def test_ordered_close_to_np_sum(self, arrays):
        expected = np.sum(np.stack(arrays), axis=0)
        for buf in wire_allreduce("ordered", arrays):
            np.testing.assert_allclose(buf, expected, rtol=1e-10, atol=1e-10)

    @_SETTINGS
    @given(arrays=grad_arrays)
    def test_ring_matches_declared_order_bitwise(self, arrays):
        expected = ring_ordered_sum(arrays)
        for buf in wire_allreduce("ring", arrays):
            np.testing.assert_array_equal(buf, expected, strict=True)

    @_SETTINGS
    @given(arrays=grad_arrays)
    def test_ring_close_to_np_sum(self, arrays):
        expected = np.sum(np.stack(arrays), axis=0)
        for buf in wire_allreduce("ring", arrays):
            np.testing.assert_allclose(buf, expected, rtol=1e-10, atol=1e-10)

    @_SETTINGS
    @given(
        n=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_world_two_ring_is_np_sum_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(n) for _ in range(2)]
        expected = np.sum(np.stack(arrays), axis=0)
        for buf in wire_allreduce("ring", arrays):
            np.testing.assert_array_equal(buf, expected, strict=True)

    def test_float32_ordered_bitwise(self):
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(33).astype(np.float32) for _ in range(4)]
        expected = np.sum(np.stack(arrays), axis=0)
        for buf in wire_allreduce("ordered", arrays):
            np.testing.assert_array_equal(buf, expected, strict=True)


class TestReferenceSums:
    @_SETTINGS
    @given(arrays=grad_arrays)
    def test_ordered_sum_is_left_associative(self, arrays):
        # independent reference: fresh-array binary adds, left to right
        expected = functools.reduce(np.add, arrays)
        np.testing.assert_array_equal(ordered_sum(arrays), expected, strict=True)

    @given(n=st.integers(1, 1000), world=st.integers(1, 16))
    def test_ring_chunks_partition(self, n, world):
        chunks = ring_chunks(n, world)
        assert len(chunks) == world
        assert chunks[0].start == 0 and chunks[-1].stop == n
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start


class TestPackedAllreduce:
    @pytest.mark.parametrize("mode", ["ordered", "ring"])
    def test_bucketed_packing_roundtrip(self, mode):
        """A multi-array bucket packs into one wire payload and unpacks back.

        Bit-equality to the reference order must hold for every array in
        the bucket — packing may not change any element's association.
        """
        world = 3
        rng = np.random.default_rng(42)
        shapes = [(5, 3), (7,), (2, 2, 2)]
        per_rank = [
            [rng.standard_normal(s) for s in shapes] for _ in range(world)
        ]
        # the whole bucket is one flat wire buffer, so the ring chunking
        # runs over the *pack* — mirror that here
        packed = [
            np.concatenate([a.ravel() for a in per_rank[r]]) for r in range(world)
        ]
        flat_ref = (
            ordered_sum(packed) if mode == "ordered" else ring_ordered_sum(packed)
        )
        run_ranks(world, lambda rank, left, right: PackedAllreduce(
            rank, world, left, right, per_rank[rank], mode=mode
        )())
        for rank in range(world):
            got = np.concatenate([a.ravel() for a in per_rank[rank]])
            np.testing.assert_array_equal(got, flat_ref, strict=True)
            assert [a.shape for a in per_rank[rank]] == shapes

    def test_single_rank_noop(self):
        a = np.ones(4)
        PackedAllreduce(0, 1, None, None, [a])()
        np.testing.assert_array_equal(a, np.ones(4))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PackedAllreduce(0, 1, None, None, [np.ones(4)], mode="tree")

    def test_dead_peer_on_the_send_side_is_a_connection_error(self):
        """Rank 0's first wire op is a send: a dead rank 1 is a broken pipe,
        which the worker's drain handler catches like a ``ChannelClosed``."""
        ring, channels = make_ring(2)
        try:
            for ch in ring[1]:
                ch.close()
            with pytest.raises(ConnectionError):
                PackedAllreduce(0, 2, *ring[0], [np.ones(8)])()
        finally:
            for c in channels:
                c.close()

    def test_dead_peer_surfaces_as_channel_closed_naming_it(self):
        """The dead neighbor's rank (the channel's peer tag) is what crash
        attribution reads.  Rank 1's first wire op in the ordered protocol
        is a recv, so closing rank 0's endpoints surfaces as EOF (not a
        send-side broken pipe)."""
        ring, channels = make_ring(2)
        left, right = ring[1]
        left.peer = right.peer = 0  # both of rank 1's neighbors are rank 0
        try:
            for ch in ring[0]:  # rank 0 dies: close its left and right
                ch.close()
            with pytest.raises(ChannelClosed) as exc_info:
                PackedAllreduce(1, 2, left, right, [np.ones(8)])()
            assert exc_info.value.peer == 0
            assert "peer rank 0" in str(exc_info.value)
        finally:
            for c in channels:
                c.close()
