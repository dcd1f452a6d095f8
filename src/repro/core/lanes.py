"""Lanes: a model's forward, backward and update on more than one core.

:class:`Lanes` runs a pass's work on ``width`` threads: the caller is lane
0, lanes 1.. are helper threads.  Four kinds of work go on them.

*Whole tables* (the sparse half).  Every table's pooled lookup, its
backward and its optimizer update is a loop of independent,
latency-bound per-table calls (Gupta et al., ``1906.03109``:
memory-level parallelism, not FLOPs, bounds them).  :meth:`Lanes.run`
hands each item to one lane whole, so a table's calls are exactly the
serial loop's; tables share no written state, so the result is
bit-identical to one lane by construction.  Only an item whose traffic
reaches :data:`LANE_MIN_BYTES` leaves the caller; lanes are balanced by
bytes.  The dense optimizer step spreads whole parameters the same way.

*Row blocks* (the dense half).  An MLP stack's GEMMs are split across
lanes by rows of their result (:meth:`Lanes.each`, :func:`row_block`),
the way Kalamkar et al. (``2005.04680``) split DLRM's MLP GEMMs across
cores.  A row block of a product is not bit-identical to the whole call
by construction — a BLAS may pick another kernel, and so another
summation order, for another shape — so a product is split only once
:func:`split_is_exact` has compared the split with the whole call on
seeded operands of its exact shape, strides, dtype and width, once per
process.  Only a stack with :data:`LANE_MIN_FLOPS` of GEMM work per lane
takes lanes, and only while the BLAS runs a GEMM on one thread
(:func:`blas_threads`): a threaded BLAS already puts every core on each
GEMM, and lanes on top of it oversubscribe the cores.

*Whole cache blocks* (the dot interaction).  The fused interaction walks
the batch in blocks of :func:`~repro.core.dense_kernels.dot_block_rows`
samples; each lane takes a contiguous run of whole blocks
(:func:`block_run`).  Each sample's gram is the same per-sample call
whatever block or lane it lands in, so the split is bit-identical by
construction and needs no probe.  It is taken only when every lane gets
:data:`LANE_MIN_BLOCKS` whole blocks.

*Row ranges of one set-up job* (outside any binding).  A table's seeded
draw and an optimizer's table-sized state fill are split by rows
(:func:`on_rows`, one :func:`row_block` per lane).  The fill is
bit-identical by construction.  The draw is too, because ``uniform``
consumes one 64-bit word per element: the lane whose rows start at
``lo`` draws from the caller's stream skipped ahead by ``lo x dim``
words, and the caller's generator is then left where the whole draw
ends (:mod:`repro.core.embedding`).  A job is split only from
:data:`LANE_MIN_ELEMS` elements.

The module owns the process's core budget: :func:`free_cores` is its
share of the process tree's cores (:func:`take_share`).
:func:`lane_count` — one lane per free core — is the width a pass may use;
:meth:`~repro.core.model.DLRM.bound_lanes` decides it on entry and binds
the process's one :class:`Lanes` (:data:`LANES`) to a model's embedding
collection, its interaction, any extra holder (a trainer's optimizer)
and — under a one-thread BLAS — its two MLP stacks, for the duration of
one :meth:`~repro.core.training.Trainer.train_step` or one
:meth:`~repro.core.model.DLRM.predict_proba`; :func:`on_rows` takes the
lanes the same way for one set-up job.

Rules for code running on a lane: it writes only its own item's state or
its own rows, draws arena buffers only through
:class:`~repro.core.dense_kernels.Workspace`'s locked ``get`` /
``get_rows`` (buffers shared by several items are sized on the caller
before dispatch), and opens no tracer span — the tracer is
single-threaded.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from functools import cache, partial
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "LANE_MIN_BLOCKS",
    "LANE_MIN_BYTES",
    "LANE_MIN_ELEMS",
    "LANE_MIN_FLOPS",
    "LANES",
    "ROW_ALIGN",
    "THREAD_PREFIX",
    "Lanes",
    "available_cores",
    "blas_threads",
    "block_run",
    "dot_floor",
    "free_cores",
    "lane_count",
    "on_rows",
    "row_block",
    "split_is_exact",
    "spread",
    "stack_floor",
    "take_share",
]

T = TypeVar("T")

#: Row bytes one table must move in a phase (lookups x row bytes for the
#: gather and its backward, unique rows x arrays x row bytes for the
#: optimizer) before it leaves the caller's lane.  One lane -> two, ms per
#: phase (gather / backward / Adagrad), eight equal f32 dim-64 tables of
#: 50 k rows, Zipf 1.05 ids, median of 15 alternating repetitions, 2-core
#: Xeon @ 2.10 GHz; the gather's traffic, Adagrad's in brackets:
#: 32 KiB (48) 0.18 -> 0.43 / 0.14 -> 0.39 / 0.38 -> 0.98;
#: 128 KiB (159) 0.46 -> 0.56 / 0.33 -> 0.46 / 0.77 -> 1.13;
#: 256 KiB (284) 0.75 -> 0.70 / 0.44 -> 0.50 / 1.51 -> 1.65;
#: 512 KiB (500) 1.04 -> 0.96 / 0.61 -> 0.58 / 2.29 -> 2.18;
#: 768 KiB (694) 1.44 -> 1.07 / 0.83 -> 0.63 / 3.30 -> 2.70;
#: 2.5 MiB (1804) 3.97 -> 2.94 / 2.33 -> 1.48 / 8.40 -> 6.34.
#: Four tables of 100 k rows cross at the same place (512 KiB: 0.53 ->
#: 0.53 / 0.36 -> 0.32 / 1.31 -> 1.30).  Below ~512 KiB the GIL handoffs
#: cost more than the second lane hides; 768 KiB is the first size where
#: every phase wins in both sweeps.
LANE_MIN_BYTES = 768 * 1024

#: GEMM FLOPs per lane in one pass over an MLP stack (``2 x rows x sum of
#: in x out`` over its layers, over the width) before the stack leaves
#: the caller's lane.  One lane -> two, ms per training pass (forward +
#: backward) of an f32 stack ``w -> w -> w``, median of 9 ABBA repetitions
#: whose two-thread sgemm control read >= 1.35x, 2-core Xeon @ 2.10 GHz;
#: per-lane MFLOP in brackets:
#: 256 rows: w 64 (2.1) 0.22 -> 0.36; w 128 (8.4) 0.58 -> 0.71;
#: w 192 (18.9) 1.06 -> 1.09; w 256 (33.6) 1.81 -> 1.68; w 384 (75.5) 3.66 -> 2.61;
#: 512 rows: w 64 (4.2) 0.38 -> 0.52; w 96 (9.4) 0.67 -> 0.74;
#: w 128 (16.8) 1.07 -> 0.99; w 192 (37.8) 2.18 -> 1.88;
#: 1024 rows: w 32 (2.1) 0.48 -> 0.58; w 64 (8.4) 0.76 -> 0.76;
#: w 96 (18.9) 1.34 -> 1.16; w 128 (33.6) 2.07 -> 1.69;
#: 2048 rows: w 48 (9.4) 1.35 -> 1.06; w 64 (16.8) 1.45 -> 1.18.
#: Below the crossover the three handoffs of a pass (~0.08 ms each) cost
#: more than half the GEMMs saves; 16 M is the first size where 512, 1024
#: and 2048 rows all win, 256 rows cross between 19 and 34 M.
LANE_MIN_FLOPS = 16_000_000

#: Whole batch blocks of the dot interaction
#: (:func:`~repro.core.dense_kernels.dot_block_rows`) every lane must get
#: before the interaction leaves the caller's lane.  One lane -> two, ms
#: per training pass (forward + backward) of the fused f32 interaction,
#: median of 15 ABBA repetitions, 2-core Xeon @ 2.10 GHz, two-thread
#: sgemm control before -> after in brackets; blocks per lane first:
#: 61 vectors dim 16, 35-sample blocks (1.41 -> 1.76x): 1: 1.52 -> 1.07;
#: 2: 3.27 -> 2.03; 3: 2.88 -> 2.71; 4: 6.57 -> 3.87; 8: 14.41 -> 7.70;
#: 29 (``train_dot``'s 2048 rows): 53.2 -> 31.8;
#: 27 vectors dim 16, 179-sample blocks (0.85 -> 1.79x): 1: 2.13 -> 1.53;
#: 2: 4.96 -> 3.00; 4: 9.93 -> 7.34.
#: A block is 512 KiB of grams, ~0.7 ms of work against ~0.08 ms per
#: handoff, so one block per lane already wins; on a host whose second
#: core is busy (control <= 1.0x) every size reads 0.83-1.01x.
LANE_MIN_BLOCKS = 1

#: Elements a row-range job outside a model's binding (:func:`on_rows`:
#: a table's seeded draw, an optimizer's state fill) must cover before it
#: is split across the lanes.  One lane -> two, ms per job on a dim-64
#: table, median of 15 alternating repetitions, 2-core Xeon @ 2.10 GHz;
#: the seeded draw, then the state fill, elements first:
#: f32: 2^16 0.30 -> 0.46 / 0.02 -> 0.05; 2^17 1.45 -> 1.05 / 0.29 -> 0.27;
#: 2^18 1.69 -> 1.49 / 0.49 -> 0.48; 2^19 3.36 -> 2.63 / 0.98 -> 0.87;
#: 2^20 7.70 -> 4.24 / 1.76 -> 1.26; 2^22 31.8 -> 17.2 / 5.13 -> 3.03;
#: a second f32 sweep: 2^17 0.61 -> 0.90 / 0.04 -> 0.07;
#: 2^18 2.12 -> 1.44 / 0.09 -> 0.12; 2^20 7.68 -> 4.47 / 0.35 -> 0.27;
#: f64: 2^17 0.67 -> 0.84 / 0.54 -> 0.47; 2^18 1.56 -> 1.56 / 1.20 -> 0.93;
#: 2^19 2.68 -> 2.60 / 1.28 -> 1.09; 2^20 5.54 -> 5.01 / 1.95 -> 1.45;
#: 2^21 10.8 -> 7.44 / 4.47 -> 2.73.
#: A handoff costs ~0.1 ms plus a generator skipped ahead per lane, and a
#: fill of recycled pages is too short to repay it; 1 M elements is the
#: first size where both jobs win in every sweep.
LANE_MIN_ELEMS = 1 << 20

#: Row blocks of a split product start at multiples of this many rows.
ROW_ALIGN = 64

#: Name prefix of every helper thread (leak checks look for it).
THREAD_PREFIX = "lane-"


def available_cores() -> int:
    """CPU cores this process may run on: its affinity set (Linux;
    containers pin a subset of the host's cores), else ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


# -- the core budget ----------------------------------------------------------

#: Cores this process was handed by its parent; ``None`` at the top of the
#: process tree, whose share is :func:`available_cores`.
_share: int | None = None


def free_cores() -> int:
    """Cores this process may put to work: its share of the process tree's
    cores (:func:`take_share`; all of :func:`available_cores` at the top)."""
    return available_cores() if _share is None else _share


def take_share(cores: int) -> None:
    """Make ``cores`` (at least one) of the parent's :func:`free_cores`
    this process's share, and lower the loaded OpenBLAS's thread count to
    it.  Called once, first thing in a forked child; never in the
    top-level process, whose BLAS thread count is a deployment setting."""
    global _share
    _share = max(1, cores)
    blas = _blas()
    if blas is not None and blas[0]() > _share:
        blas[1](_share)


def lane_count() -> int:
    """Lanes one pass may use: one per free core (:func:`free_cores`)."""
    return free_cores()


#: What OpenBLAS builds name the thread-count getter (numpy's bundled
#: ``scipy-openblas`` first); the setter beside each is named ``_set_``.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@cache
def _blas():
    """The loaded OpenBLAS's thread-count getter and setter, or ``None``.
    The library is found among this process's mapped files (Linux), so
    this opens nothing numpy has not already loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5])
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            setter = getattr(lib, name.replace("_get_", "_set_"), None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs a GEMM on, asked of the library
    each call (so a run-time change shows); ``None`` when no OpenBLAS can
    be asked (another BLAS, or no ``/proc``)."""
    blas = _blas()
    return None if blas is None else int(blas[0]())


def stack_floor(rows: int, weights: int, width: int) -> bool:
    """Whether a pass over ``rows`` rows of a stack with ``weights`` GEMM
    weights (sum of in x out over its layers) has
    :data:`LANE_MIN_FLOPS` per lane at ``width``."""
    return 2 * rows * weights >= LANE_MIN_FLOPS * width


def dot_floor(rows: int, block: int, width: int) -> bool:
    """Whether ``rows`` samples in blocks of ``block`` give each of
    ``width`` lanes :data:`LANE_MIN_BLOCKS` whole blocks."""
    return rows // block >= width * LANE_MIN_BLOCKS


def row_block(rows: int, lane: int, width: int) -> tuple[int, int]:
    """Lane ``lane``'s rows ``[lo, hi)`` of ``rows`` split ``width`` ways:
    equal blocks rounded up to :data:`ROW_ALIGN` rows, the last one short
    and any beyond the rows empty."""
    per = -(-rows // (width * ROW_ALIGN)) * ROW_ALIGN
    lo = min(rows, lane * per)
    return lo, min(rows, lo + per)


def block_run(blocks: int, lane: int, width: int) -> tuple[int, int]:
    """Lane ``lane``'s blocks ``[lo, hi)`` of ``blocks`` split ``width``
    ways: contiguous runs whose lengths differ by at most one, so every
    lane gets one once ``blocks >= width``."""
    return blocks * lane // width, blocks * (lane + 1) // width


# -- the split probe ----------------------------------------------------------

#: ``split_is_exact`` verdicts of this process, by product signature.
_EXACT: dict[tuple, bool] = {}


def split_is_exact(a: np.ndarray, b: np.ndarray, width: int) -> bool:
    """Whether ``a @ b`` computed as :func:`row_block` row blocks of ``a``
    (into the rows of one C-ordered result) is bit-identical to the whole
    call, for every pair of operands with ``a``'s and ``b``'s shapes,
    strides and dtype.

    That holds on a BLAS whose summation order depends on the call's
    shape, strides and dtype, never on the values or on where the operands
    sit in memory (the bundled OpenBLAS; the whole-call fused kernels,
    which write into arena buffers where the reference allocates, assume
    the same).  So one comparison on seeded random operands settles it;
    the verdict is kept for the process.  An operand with a negative
    stride is not split.
    """
    key = (a.shape, a.strides, b.shape, b.strides, a.dtype.str, width)
    verdict = _EXACT.get(key)
    if verdict is None:
        verdict = _EXACT[key] = _probe(a, b, width)
    return verdict


def _like(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A fresh array with ``x``'s shape, strides and (float32 / float64)
    dtype, seeded values; its buffer is filled in place, so the probe
    holds one copy of each operand at a time."""
    extent = sum((n - 1) * s for n, s in zip(x.shape, x.strides))
    buf = rng.random(dtype=x.dtype, out=np.empty(-(-extent // x.itemsize) + 1, x.dtype))
    return as_strided(buf, x.shape, x.strides)


def _probe(a: np.ndarray, b: np.ndarray, width: int) -> bool:
    if min(a.strides + b.strides) < 0:
        return False
    rng = np.random.default_rng(0)
    a, b = _like(a, rng), _like(b, rng)
    whole = np.matmul(a, b, out=np.empty((len(a), b.shape[1]), a.dtype))
    block = np.empty_like(whole[: row_block(len(a), 0, width)[1]])  # lane 0's is the largest
    for lane in range(width):
        lo, hi = row_block(len(a), lane, width)
        if lo < hi:
            np.matmul(a[lo:hi], b, out=block[: hi - lo])
            if block[: hi - lo].tobytes() != whole[lo:hi].tobytes():
                return False
    return True


# -- helper threads -----------------------------------------------------------


class _Helper:
    """One helper thread and its two queues: jobs in, outcomes out."""

    def __init__(self, lane: int) -> None:
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=_serve, args=(self.inbox, self.outbox),
            name=f"{THREAD_PREFIX}{lane}", daemon=True,
        )
        self.thread.start()


def _serve(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    while (job := inbox.get()) is not None:
        outbox.put(_attempt(job))
        # An idle helper must not keep its last job's model and arrays
        # alive: the helpers outlive every model.
        del job


def _attempt(job: Callable[[], None]) -> BaseException | None:
    """``job()``; its exception is returned, to be raised on the caller."""
    try:
        job()
    except BaseException as exc:  # re-raised on the caller by Lanes._dispatch
        return exc
    return None


def _each_item(fn: Callable[[T, int], None], items: list[T], lane: int) -> None:
    for item in items:
        fn(item, lane)


def _assign(costs: Sequence[int], width: int) -> list[list[int]]:
    """Item indices per lane: items below :data:`LANE_MIN_BYTES` on lane
    0, the rest largest first onto the least-loaded lane; each lane's
    items in their original order."""
    lanes: list[list[int]] = [[] for _ in range(width)]
    load = [0] * width
    big = []
    for i, cost in enumerate(costs):
        if cost >= LANE_MIN_BYTES:
            big.append(i)
        else:
            lanes[0].append(i)
            load[0] += cost
    for i in sorted(big, key=costs.__getitem__, reverse=True):
        k = load.index(min(load))
        lanes[k].append(i)
        load[k] += costs[i]
    return [sorted(lane) for lane in lanes]


class Lanes:
    """``width`` lanes: the caller and ``width - 1`` helper threads,
    started on first use, restarted in a forked child (a parent's threads
    do not exist there) and stopped by :meth:`close`."""

    def __init__(self) -> None:
        #: Lanes the next :meth:`run` / :meth:`each` may use.
        self.width = 1
        #: Held by the one thread the lanes are bound for; another thread
        #: that finds it taken runs on one lane.
        self.claim = threading.Lock()
        self._helpers: list[_Helper] = []
        self._pid = os.getpid()

    def run(
        self,
        fn: Callable[[T, int], None],
        items: Sequence[T],
        costs: Sequence[int],
    ) -> None:
        """``fn(item, lane)`` for every item, each on one lane by its cost
        in bytes (``costs[i]`` for ``items[i]``)."""
        plan = _assign(costs, self.width)
        self._dispatch([
            partial(_each_item, fn, [items[i] for i in lane], k) if lane else None
            for k, lane in enumerate(plan)
        ])

    def each(self, fn: Callable[[int], None]) -> None:
        """``fn(lane)`` on every lane at once (each picks its own share of
        the work, e.g. a :func:`row_block`)."""
        self._dispatch([partial(fn, k) for k in range(self.width)])

    def _dispatch(self, jobs: list[Callable[[], None] | None]) -> None:
        """``jobs[k]`` on lane ``k`` (``None``: the lane idles), lane 0's
        on the caller.  Returns when every lane has stopped; the exception
        of the lowest lane that raised is then raised here."""
        busy = [k for k, job in enumerate(jobs) if k and job is not None]
        if busy:
            self._start(max(busy))
        for k in busy:
            self._helpers[k - 1].inbox.put(jobs[k])
        errors = [None if jobs[0] is None else _attempt(jobs[0])]
        errors += [self._helpers[k - 1].outbox.get() for k in busy]
        for exc in errors:
            if exc is not None:
                raise exc

    def _start(self, helpers: int) -> None:
        if self._pid != os.getpid():
            self._helpers, self._pid = [], os.getpid()
        while len(self._helpers) < helpers:
            self._helpers.append(_Helper(len(self._helpers) + 1))

    def close(self) -> None:
        """Stop the helper threads this process started."""
        helpers, self._helpers = self._helpers, []
        if self._pid != os.getpid():
            return
        for helper in helpers:
            helper.inbox.put(None)
        for helper in helpers:
            helper.thread.join(timeout=10)


#: The process's lanes, which :meth:`~repro.core.model.DLRM.bound_lanes`
#: binds: the width and the cores are the process's, not a model's.  Its
#: helpers are daemon threads, started on first use (again in a forked
#: child) and left running.
LANES = Lanes()


def on_rows(fn: Callable[[int, int], None], rows: int, elems: int) -> int:
    """``fn(lo, hi)`` over the ``rows`` rows of a job of ``elems``
    elements, one :func:`row_block` per lane of :data:`LANES`, outside any
    model's binding; returns the width it ran at.

    The lanes are taken as :meth:`~repro.core.model.DLRM.bound_lanes`
    takes them: :func:`lane_count` wide, :attr:`Lanes.claim` acquired
    without blocking.  Under :data:`LANE_MIN_ELEMS` (``elems=0``: a job
    that must not split), at one free core, or while another thread holds
    the claim, it is ``fn(0, rows)`` on the caller: the serial loop.
    Lanes whose block is empty idle."""
    width = lane_count() if elems and elems >= LANE_MIN_ELEMS else 1
    if width < 2 or not LANES.claim.acquire(blocking=False):
        fn(0, rows)
        return 1
    try:
        LANES.width = width
        LANES.each(partial(_row_job, fn, rows, width))
    finally:
        LANES.claim.release()
    return width


def _row_job(fn: Callable[[int, int], None], rows: int, width: int, lane: int) -> None:
    lo, hi = row_block(rows, lane, width)
    if lo < hi:
        fn(lo, hi)


def spread(
    lanes: Lanes | None,
    fn: Callable[[T, int], None],
    items: Sequence[T],
    cost: Callable[[T], int],
    prepare: Callable[[], None] | None = None,
) -> None:
    """``fn(item, 0)`` for each item in order — the serial loop — unless
    ``lanes`` offers more than one lane and some item's ``cost`` reaches
    :data:`LANE_MIN_BYTES`: then ``prepare()`` (state the items share,
    sized on the caller) and :meth:`Lanes.run`.  ``cost`` is only
    evaluated under lanes."""
    if lanes is not None and lanes.width > 1:
        costs = [cost(item) for item in items]
        if max(costs, default=0) >= LANE_MIN_BYTES:
            if prepare is not None:
                prepare()
            lanes.run(fn, items, costs)
            return
    for item in items:
        fn(item, 0)
