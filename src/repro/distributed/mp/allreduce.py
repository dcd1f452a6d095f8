"""Allreduce over a ring of worker processes, with pinned reduction orders.

Floating-point addition is commutative but not associative, so a
deterministic allreduce must *declare* its reduction order.  Two modes:

``"ordered"``
    Rank-sequential: the partial sum travels the ring once
    (``((g_0 + g_1) + g_2) + ...``) and the total travels it once more.
    This is exactly the order a
    serial trainer accumulating per-worker sub-batches produces — so an
    N-worker run is bit-identical to the serial reference in every dtype.
    Cost: 2(W-1) sequential full-payload hops — latency-bound, fine for
    the small dense halves of recommendation models.

``"ring"``
    Bandwidth-optimal reduce-scatter + allgather: 2(W-1) hops of
    ``payload/W`` each, all links busy simultaneously.  Chunk ``c`` is
    accumulated in rotated rank order ``g_c + g_{c+1} + ... (mod W)`` —
    deterministic (pinned by :func:`ring_ordered_sum` and the hypothesis
    suite) but a different association than ``np.sum`` for W > 2, hence
    tolerance-bounded against the serial reference in general and
    bit-identical at W = 2 (two-term sums are order-insensitive).

:class:`PackedAllreduce` is what the trainer calls: a step's dense gradient
arrays travel as one packed buffer, so a step costs one allreduce whatever
the number of layers.  Everything here runs on the calling thread.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, transfer

__all__ = [
    "ordered_sum",
    "ring_ordered_sum",
    "ring_chunks",
    "ordered_allreduce",
    "ring_allreduce",
    "PackedAllreduce",
]


# ---------------------------------------------------------------------------
# reduction-order references (plain numpy, used by tests and the serial path)
# ---------------------------------------------------------------------------


def ordered_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Left-associative rank-order sum — the canonical reduction order.

    This is exactly the gradient accumulation a serial trainer performs
    across sub-batches (``acc += g_r`` in rank order), and what
    ``np.sum(np.stack(arrays), axis=0)`` computes for real gradient
    shapes (numpy's axis-0 reduction walks rows sequentially; only the
    degenerate single-element-row case may switch to pairwise order).
    """
    acc = arrays[0].astype(arrays[0].dtype, copy=True)
    for a in arrays[1:]:
        acc += a
    return acc


def ring_chunks(n: int, world: int) -> list[slice]:
    """The flat-index chunking a ring allreduce over ``world`` ranks uses."""
    bounds = [(n * i) // world for i in range(world + 1)]
    return [slice(bounds[i], bounds[i + 1]) for i in range(world)]


def ring_ordered_sum(arrays: list[np.ndarray], world: int | None = None) -> np.ndarray:
    """The exact result a ring reduce-scatter/allgather produces.

    Chunk ``c`` accumulates contributions in rotated rank order
    ``g_c, g_{c+1}, ..., g_{c+W-1} (mod W)``, left-associatively.
    """
    world = len(arrays) if world is None else world
    flats = [a.ravel() for a in arrays]
    out = np.empty_like(flats[0])
    for c, sl in enumerate(ring_chunks(flats[0].size, world)):
        acc = flats[c % len(arrays)][sl].copy()
        for k in range(1, len(arrays)):
            acc += flats[(c + k) % len(arrays)][sl]
        out[sl] = acc
    return out.reshape(arrays[0].shape)


# ---------------------------------------------------------------------------
# the wire algorithms
# ---------------------------------------------------------------------------


def ordered_allreduce(
    rank: int,
    world: int,
    left: Channel,
    right: Channel,
    buf: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Rank-sequential allreduce; ``buf`` is reduced in place on every rank.

    Phase 1 walks the partial sum up the ring (rank r receives
    ``g_0 + ... + g_{r-1}`` from its left neighbor and adds its own
    contribution); phase 2 broadcasts the total from rank W-1 back around.
    Every send is matched by a concurrently-posted receive on the peer, so
    plain blocking sends cannot deadlock (the dependency graph is a chain).
    """
    if world == 1:
        return
    flat = buf.reshape(-1)
    sview = scratch.reshape(-1)[: flat.size]
    if rank > 0:
        left.recv_into(sview)
        flat += sview
    right.send_array(flat)  # partial up the ring, or the total to rank 0
    if rank < world - 1:
        left.recv_into(flat)
        if rank < world - 2:
            right.send_array(flat)


def ring_allreduce(
    rank: int,
    world: int,
    left: Channel,
    right: Channel,
    buf: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Bandwidth-optimal ring allreduce; ``buf`` reduced in place.

    Reduce-scatter then allgather, both as W-1 rounds of simultaneous
    send-right/receive-left over :func:`~repro.distributed.mp.channels.transfer`
    (which cannot deadlock on large chunks).
    """
    if world == 1:
        return
    flat = buf.reshape(-1)
    chunks = ring_chunks(flat.size, world)
    sview = scratch.reshape(-1)
    for step in range(world - 1):
        send_c = chunks[(rank - step) % world]
        recv_c = chunks[(rank - step - 1) % world]
        incoming = sview[: recv_c.stop - recv_c.start]
        transfer([(right, flat[send_c])], [(left, incoming)])
        flat[recv_c] += incoming
    for step in range(world - 1):
        send_c = chunks[(rank + 1 - step) % world]
        recv_c = chunks[(rank - step) % world]
        transfer([(right, flat[send_c])], [(left, flat[recv_c])])


ALLREDUCE_MODES = {"ordered": ordered_allreduce, "ring": ring_allreduce}


# ---------------------------------------------------------------------------
# the trainer's entry point: pack -> reduce -> unpack
# ---------------------------------------------------------------------------


class PackedAllreduce:
    """In-place allreduce of a fixed list of arrays as one wire payload.

    Calling it copies ``arrays`` into one contiguous buffer, reduces that
    buffer over the ring in ``mode``'s declared order and copies the sums
    back — 2(W-1) hops for the whole list instead of per array.  Packing
    cannot change a bit under ``"ordered"``: the reduction is element-wise,
    so an element's association does not depend on where it sits in the
    pack (``"ring"`` chunks the pack, so its rotation does).  Every rank
    must pass arrays of the same sizes in the same order.  A peer's death
    surfaces as :class:`~.channels.ChannelClosed` naming it.
    """

    def __init__(
        self,
        rank: int,
        world: int,
        left: Channel | None,
        right: Channel | None,
        arrays: list[np.ndarray],
        mode: str = "ordered",
    ) -> None:
        if mode not in ALLREDUCE_MODES:
            raise ValueError(f"unknown allreduce mode {mode!r}; use {sorted(ALLREDUCE_MODES)}")
        self.rank = rank
        self.world = world
        self.left = left
        self.right = right
        self.arrays = arrays
        self._algo = ALLREDUCE_MODES[mode]
        bounds = np.cumsum([0] + [a.size for a in arrays])
        self._pack = np.empty(bounds[-1], dtype=arrays[0].dtype)
        self._scratch = np.empty_like(self._pack)
        #: each array's place in the pack, in the array's own shape
        self._slots = [
            self._pack[lo:hi].reshape(a.shape)
            for a, lo, hi in zip(arrays, bounds, bounds[1:])
        ]

    def __call__(self) -> None:
        if self.world == 1:
            return
        for a, slot in zip(self.arrays, self._slots):
            slot[...] = a
        self._algo(
            self.rank, self.world, self.left, self.right, self._pack, self._scratch
        )
        for a, slot in zip(self.arrays, self._slots):
            a[...] = slot
