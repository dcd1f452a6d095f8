"""Predicted hybrid-parallel step time, built on the event simulator.

The scaling experiment (:mod:`repro.experiments.ext_mp_scaling`)
cross-validates the *measured* multi-process step time of
:func:`repro.distributed.mp.run_hybrid` against the prediction here, which
reuses the same :class:`~repro.distributed.simulator.Resource` FIFO-server
primitive the cluster simulator is built from:

* **Compute** — ``world`` sub-batch jobs on ``min(world, cores)`` core
  resources.  Each job costs the *measured* single-process step time at
  the local batch size **plus** that rank's communication CPU (each
  sparse-exchange round's own code is real compute), because on
  an oversubscribed host comm CPU serializes with model compute instead of
  hiding behind it.  ``cores < world`` then degenerates to time-sharing —
  exactly what the OS scheduler does to the worker processes.
* **Dense allreduce** — the step's one packed bucket, hop by hop on a
  link resource.  The per-hop cost under load is *measured* by
  :func:`probe_comm` with the real
  :class:`~repro.distributed.mp.allreduce.PackedAllreduce` called after a
  compute block, as the trainer calls it (scheduler wakeups dominate idle
  wire latency on a busy host).
* **Sparse exchange & barrier** — a header round and a payload round per
  peer, and the measured barrier wakeup, scaled by the round/waiter
  counts.

The phases add: every exchange blocks the worker's main thread, so the
model credits no overlap of communication with compute.

Every parameter is measured, none fitted: socketpair latency/bandwidth,
contended hop overhead, a sparse round's CPU cost (fixed + per-byte), and
barrier cost all come from :func:`probe_comm` on the host being predicted.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from ...core.config import ModelConfig
from ...core.embedding import SparseGrad
from ...core.lanes import available_cores, free_cores
from ..simulator import Resource
from .allreduce import PackedAllreduce
from .channels import Channel
from .shards import ShardPlan
from .sparse_exchange import SparseExchange
from .timeouts import get_timeouts

__all__ = ["CommProfile", "StepPrediction", "probe_comm", "predict_step_time"]

_ROW_INDEX_BYTES = 8  # int64 row ids accompany each sparse gradient row


@dataclass(frozen=True)
class CommProfile:
    """Measured communication characteristics of this host.

    ``latency_s``/``bandwidth_bps`` describe an idle socketpair;
    ``hop_overhead_s`` is the cost of one allreduce hop measured between
    two ranks that each compute, then allreduce (the trainer's actual
    structure); ``frame_fixed_s``/``frame_byte_s`` model the CPU of one
    sparse-exchange round outside the wire (its header, payload and
    slots); ``barrier_s`` is one two-process barrier wait.
    """

    latency_s: float
    bandwidth_bps: float
    barrier_s: float
    hop_overhead_s: float = 0.0
    frame_fixed_s: float = 0.0
    frame_byte_s: float = 0.0


@dataclass(frozen=True)
class StepPrediction:
    """Per-phase breakdown of one predicted hybrid training step."""

    world: int
    cores: int
    compute_s: float
    dense_comm_s: float
    sparse_comm_s: float
    barrier_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.dense_comm_s + self.sparse_comm_s + self.barrier_s


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _latency_child(chan: Channel, pings: int, payload: int, reps: int, barrier, waits: int) -> None:
    probe_s = get_timeouts().probe_s
    for _ in range(pings):
        chan.send_bytes(chan.recv_bytes())
    buf = np.empty(payload, dtype=np.uint8)
    for _ in range(reps):
        chan.recv_into(buf)
    chan.send_bytes(b"ok")
    for _ in range(waits):
        barrier.wait(timeout=probe_s)


_HOP_ITERS = 20
_HOP_ELEMS = 4096


def _hop_compute_block(a: np.ndarray, b: np.ndarray) -> None:
    for _ in range(12):
        c = a @ b
        c = np.maximum(c, 0)
        c.T @ c


def _hop_child(rank: int, left: Channel, right: Channel, out) -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 64))
    b = rng.standard_normal((64, 64))
    allreduce = PackedAllreduce(rank, 2, left, right, [np.ones(_HOP_ELEMS) * rank])
    t0 = time.perf_counter()
    for _ in range(_HOP_ITERS):
        _hop_compute_block(a, b)
        allreduce()
    out.put(time.perf_counter() - t0)


def _probe_hop_overhead(trials: int = 3) -> float:
    """Per-hop cost of an allreduce between two computing ranks.

    Two forked ranks run the trainer's structure — compute, then one
    synchronous allreduce — and the excess over pure time-shared compute,
    divided by the hop count, is what one synchronization hop really costs
    on this host (scheduler wakeups included).  Median of ``trials`` runs:
    scheduler noise makes single measurements swing several-fold.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 64))
    b = rng.standard_normal((64, 64))
    _hop_compute_block(a, b)  # warm the kernels

    def solo_time() -> float:
        t0 = time.perf_counter()
        for _ in range(_HOP_ITERS):
            _hop_compute_block(a, b)
        return time.perf_counter() - t0

    def pair_time() -> float:
        ctx = mp.get_context("fork")
        pairs = [Channel.pair() for _ in range(2)]
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=_hop_child,
                args=(r, pairs[(r - 1) % 2][1], pairs[r][0], out),
                name=f"mp-hop-probe-{r}",
            )
            for r in range(2)
        ]
        for p in procs:
            p.start()
        for pair in pairs:
            for ch in pair:
                ch.close()
        timeouts = get_timeouts()
        elapsed = max(out.get(timeout=timeouts.probe_s) for _ in procs)
        for p in procs:
            p.join(timeout=timeouts.join_s)
        return elapsed

    hops = _HOP_ITERS * 2  # 2(W-1) with W=2
    # With two free cores the ranks compute concurrently (ideal = solo); on
    # one (e.g. a pool worker's share) they time-share.
    share = 2 if free_cores() < 2 else 1
    estimates = []
    for _ in range(trials):
        solo = min(solo_time(), solo_time())
        estimates.append(max(0.0, (pair_time() - solo * share) / hops))
    return float(np.median(estimates))


def _probe_frame_cost() -> tuple[float, float]:
    """Fixed + per-byte CPU cost of one sparse-exchange round outside the
    wire: :class:`.sparse_exchange.SparseExchange`'s own header, payload
    and slots code, for rank 0 of two.  The payload is the gradients' own
    arrays, received in place, so the per-byte cost is about zero."""
    names = [f"table_{i}" for i in range(4)]
    plan = ShardPlan(owners={name: i % 2 for i, name in enumerate(names)}, world=2)
    dtype = np.dtype(np.float32)

    def cost(rows: int, dim: int, reps: int = 30) -> tuple[float, int]:
        rng = np.random.default_rng(0)
        grads = {
            name: SparseGrad(
                rng.integers(0, 10_000, size=rows),
                rng.standard_normal((rows, dim)).astype(dtype),
            )
            for name in names
        }
        sx = SparseExchange(0, 2, plan, {}, dict.fromkeys(names, dim), dtype)
        sx.counts[:] = rows  # both ranks' headers read
        sx.reserve()
        t0 = time.perf_counter()
        for _ in range(reps):
            sx.header(grads, 1)
            sx.payload(grads, 1)
            sx.slots(1)
        elapsed = (time.perf_counter() - t0) / reps
        return elapsed, sum(a.nbytes for a in sx.payload(grads, 1))

    small_s, small_b = cost(8, 16)
    large_s, large_b = cost(1024, 16)
    per_byte = max(0.0, (large_s - small_s) / (large_b - small_b))
    fixed = max(0.0, small_s - per_byte * small_b)
    return fixed, per_byte


def probe_comm(
    pings: int = 50,
    payload_bytes: int = 1 << 20,
    payload_reps: int = 16,
    barrier_waits: int = 20,
) -> CommProfile:
    """Measure every communication parameter of this host.

    One forked child measures idle latency/bandwidth/barrier; a second
    two-process probe measures the contended per-hop overhead with the
    real allreduce; the frame cost is measured in-process.
    """
    ctx = mp.get_context("fork")
    parent, child = Channel.pair()
    barrier = ctx.Barrier(2)
    proc = ctx.Process(
        target=_latency_child,
        args=(child, pings, payload_bytes, payload_reps, barrier, barrier_waits),
        name="mp-comm-probe",
    )
    proc.start()
    child.close()
    try:
        ping = b"x" * 64
        rtts = []
        for _ in range(pings):
            t0 = time.perf_counter()
            parent.send_bytes(ping)
            parent.recv_bytes()
            rtts.append(time.perf_counter() - t0)
        latency = float(np.median(rtts)) / 2.0

        payload = np.zeros(payload_bytes, dtype=np.uint8)
        t0 = time.perf_counter()
        for _ in range(payload_reps):
            parent.send_array(payload)
        parent.recv_bytes()  # ack: all payloads fully drained
        elapsed = time.perf_counter() - t0
        bandwidth = payload_bytes * payload_reps / max(elapsed, 1e-9)

        t0 = time.perf_counter()
        for _ in range(barrier_waits):
            barrier.wait(timeout=get_timeouts().probe_s)
        barrier_s = (time.perf_counter() - t0) / barrier_waits
    finally:
        parent.close()
        proc.join(timeout=get_timeouts().join_s)
        if proc.is_alive():  # pragma: no cover - probe child wedged
            proc.terminate()
            proc.join(timeout=get_timeouts().reap_s)

    hop_overhead = _probe_hop_overhead()
    frame_fixed, frame_byte = _probe_frame_cost()
    return CommProfile(
        latency_s=latency,
        bandwidth_bps=bandwidth,
        barrier_s=barrier_s,
        hop_overhead_s=hop_overhead,
        frame_fixed_s=frame_fixed,
        frame_byte_s=frame_byte,
    )


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


def predict_step_time(
    config: ModelConfig,
    *,
    world: int,
    local_batch: int,
    sub_batch_step_s: float,
    comm: CommProfile,
    cores: int | None = None,
    reduction: str = "ordered",
) -> StepPrediction:
    """Predict one hybrid step from a measured sub-batch compute time.

    ``sub_batch_step_s`` is the measured single-process full train-step
    time at ``local_batch`` (the experiment gets it from
    ``ext_mp_scaling._measure_sub_batch``); everything else is composed
    from simulator resources parameterized by the :func:`probe_comm`
    measurements.
    """
    cores = available_cores() if cores is None else cores
    eff_cores = max(1, min(cores, world))
    oversubscribed = cores < world

    itemsize = np.dtype(config.np_dtype).itemsize
    avg_dim = sum(t.dim for t in config.tables) / max(1, len(config.tables))
    # Expected frame per mesh round: this rank's gradient rows destined for
    # one owner (1/W of the tables), row ids + values.
    round_bytes = (
        local_batch
        * config.mean_total_lookups
        / world
        * (avg_dim * itemsize + _ROW_INDEX_BYTES)
        if world > 1
        else 0.0
    )
    # Sparse-exchange CPU per rank: the code of each of the W-1 peer
    # rounds, as the probe times it (the owner's merge is not timed).
    sparse_cpu_rank = (world - 1) * (
        comm.frame_fixed_s + round_bytes * comm.frame_byte_s
    )

    # Compute: W jobs on eff_cores single-rate servers, seconds as "bytes";
    # comm CPU rides on the same cores as model compute.
    core_res = [Resource(f"core-{i}", rate=1.0) for i in range(eff_cores)]
    compute_s = max(
        core_res[rank % eff_cores].submit(0.0, sub_batch_step_s + sparse_cpu_rank)
        for rank in range(world)
    )

    # Per-hop synchronization: idle latency with a core per worker, the
    # measured contended hop otherwise.
    hop_sync = max(comm.latency_s, comm.hop_overhead_s if oversubscribed else 0.0)

    dense_bytes = config.mlp_parameters * itemsize
    dense_comm_s = 0.0
    if world > 1:
        link = Resource("dense-link", rate=comm.bandwidth_bps)
        hop_bytes = dense_bytes if reduction == "ordered" else dense_bytes / world
        now = 0.0
        for _ in range(2 * (world - 1)):
            now = link.submit(now, hop_bytes, extra_latency=hop_sync)
        dense_comm_s = now

    sparse_comm_s = 0.0
    if world > 1:
        link = Resource("sparse-link", rate=comm.bandwidth_bps)
        now = 0.0
        for _ in range(world - 1):
            # SparseExchange: a counts-header round then the payload round
            # per peer, each one synchronization point (the round CPU is
            # already on the core resources).
            now = link.submit(now, 8.0, extra_latency=hop_sync)
            now = link.submit(now, round_bytes, extra_latency=hop_sync)
        sparse_comm_s = now

    # One wakeup per waiter when contended, one round trip otherwise.
    barrier_s = 0.0
    if world > 1:
        barrier_s = comm.barrier_s * (world - 1 if oversubscribed else 1)

    return StepPrediction(
        world=world,
        cores=cores,
        compute_s=compute_s,
        dense_comm_s=dense_comm_s,
        sparse_comm_s=sparse_comm_s,
        barrier_s=barrier_s,
    )
