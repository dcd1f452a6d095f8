"""Double-buffered prefetch pipeline for the training data path.

The paper's efficiency taxonomy (§IV–V) charges a DLRM step not just for
its FLOPs but for everything serialized around them: batch materialization,
ragged truncation, index bounds checks, the CSR/coalesce bookkeeping of the
embedding ops, and frequency-stats ingestion for the tiered store.  All of
that work is a pure function of the *data stream* — it never reads a weight
— so it can run concurrently with the previous step's compute without
changing a single bit of the result.

:class:`PrefetchPipeline` does exactly that: a background prep thread pulls
batches from the source iterator (in order — the stream's rng consumption
is untouched), builds every table's
:class:`~repro.core.embedding.TablePlan` via the *same*
``plan_forward`` code path the inline trainer uses, and hands
:class:`PreparedBatch` objects to the consumer through a bounded two-slot
buffer.  Bit-identity with the unpipelined run is therefore by
construction, not by test alone (though ``tests/test_pipeline.py`` pins it
property-style anyway).

The pipeline also keeps the ledger that makes runs self-diagnosing
(:class:`PipelineStats`):

* ``compute_stall_s`` — time the consumer blocked on an empty buffer: the
  run is **prep-bound** (the paper's "data ingestion dominates" regime);
* ``prep_stall_s`` — time the producer blocked on a full buffer: the run
  is **compute-bound** and prefetch is pure win;
* ``overlap_fraction`` — the share of prep work hidden behind compute.

Prep-thread activity is recorded as complete spans and drained into the
consumer's :class:`~repro.obs.tracer.Tracer` on a separate Chrome-trace
thread lane (``tid=1``), so ``python -m repro trace pipeline`` shows the
two timelines interleaving.

While a pipeline is running its prep thread holds one of the process's
cores (:func:`repro.core.lanes.hold_core`), so the lanes of a train step
and :func:`repro.runtime.default_workers` size themselves from the cores
left and do not hand the prep thread's core to a lane or a sweep pool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core.embedding import TablePlan
from .core.lanes import hold_core
from .core.model import Batch
from .obs.tracer import NULL_TRACER

__all__ = ["PipelineStats", "PreparedBatch", "PrefetchPipeline"]

#: Chrome-trace thread lane for prep-thread spans (consumer spans stay on 0).
PREP_TID = 1


#: Slots in the prep -> consumer buffer.  Two is classic double buffering:
#: one batch being consumed, one being prepared, and the producer blocks
#: rather than running unboundedly ahead (which would both hoard memory and,
#: for tiered tables, let frequency stats drift arbitrarily far ahead of the
#: step consuming them).
_DEPTH = 2


@dataclass
class PipelineStats:
    """The stall ledger of one pipelined run.

    All times are wall-clock seconds measured with ``time.perf_counter``
    on the thread that experienced the wait.
    """

    #: Seconds the prep thread spent doing useful work (generation + plans).
    prep_busy_s: float = 0.0
    #: Seconds the prep thread blocked on a full buffer (compute-bound).
    prep_stall_s: float = 0.0
    #: Seconds the consumer blocked on an empty buffer (prep-bound).
    compute_stall_s: float = 0.0
    #: Batches fully prepared by the prep thread.
    batches: int = 0

    @property
    def overlap_fraction(self) -> float:
        """Share of prep work hidden behind compute: 1.0 means every
        second of preparation ran concurrently with a step; 0.0 means the
        consumer waited for all of it (no better than inline)."""
        if self.prep_busy_s <= 0.0:
            return 0.0
        hidden = self.prep_busy_s - self.compute_stall_s
        return max(0.0, min(1.0, hidden / self.prep_busy_s))

    def as_dict(self) -> dict[str, float]:
        return {
            "prep_busy_s": self.prep_busy_s,
            "prep_stall_s": self.prep_stall_s,
            "compute_stall_s": self.compute_stall_s,
            "overlap_fraction": self.overlap_fraction,
            "batches": self.batches,
        }


class PreparedBatch:
    """A :class:`~repro.core.model.Batch` plus its precomputed lookup plans.

    Duck-types the batch surface the model and trainer touch (``dense``,
    ``sparse``, ``labels``, ``size``, ``total_lookups``) and carries
    ``plans`` — table name -> :class:`~repro.core.embedding.TablePlan` —
    which :meth:`repro.core.model.DLRM.forward` picks up via
    ``getattr(batch, "plans", None)``.
    """

    __slots__ = ("batch", "plans", "seq")

    def __init__(
        self,
        batch: Batch,
        plans: dict[str, TablePlan] | None,
        seq: int = 0,
    ) -> None:
        self.batch = batch
        self.plans = plans
        self.seq = seq

    @property
    def dense(self) -> np.ndarray:
        return self.batch.dense

    @property
    def sparse(self):
        return self.batch.sparse

    @property
    def labels(self) -> np.ndarray:
        return self.batch.labels

    @property
    def size(self) -> int:
        return self.batch.size

    def total_lookups(self) -> int:
        return self.batch.total_lookups()


class _Closed(Exception):
    """Internal: the buffer was closed under a blocked producer/consumer."""


class _Buffer:
    """A bounded FIFO with separate producer/consumer wait accounting.

    ``queue.Queue`` would force polling to stay interruptible on close;
    condition variables give immediate wakeups, which matters because the
    producer's handoff latency lands directly on ``prep_stall_s``.
    """

    def __init__(self, depth: int) -> None:
        self._items: deque = deque()
        self._depth = depth
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._closed = False

    def put(self, item) -> float:
        """Append, blocking while full; returns seconds spent blocked.

        Raises :class:`_Closed` if the buffer is closed before space frees
        (the consumer abandoned the stream)."""
        t0 = time.perf_counter()
        with self._changed:
            while len(self._items) >= self._depth and not self._closed:
                self._changed.wait()
            if self._closed:
                raise _Closed
            self._items.append(item)
            self._changed.notify_all()
        return time.perf_counter() - t0

    def get(self) -> tuple[object, float]:
        """Pop the oldest item, blocking while empty; returns
        ``(item, seconds_blocked)``.  Raises :class:`_Closed` once closed
        and drained."""
        t0 = time.perf_counter()
        with self._changed:
            while not self._items and not self._closed:
                self._changed.wait()
            if not self._items:
                raise _Closed
            item = self._items.popleft()
            self._changed.notify_all()
        return item, time.perf_counter() - t0

    def close(self) -> None:
        with self._changed:
            self._closed = True
            self._changed.notify_all()


class _Done:
    """Sentinel: the source iterator is exhausted."""


class _Failure:
    """Sentinel: the prep thread raised; the exception re-raises on the
    consumer, annotated with the pipeline stage (satellite of the PR 8
    crash-attribution work)."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class PrefetchPipeline:
    """Background batch preparation behind a bounded two-slot buffer.

    Wraps a batch iterator; iterating the pipeline yields
    :class:`PreparedBatch` objects in exactly the source order.  ``plan_fn``
    maps a batch to its per-table plans (typically
    ``lambda b: collection.plan_batch(b.sparse)``); ``None`` prefetches
    batches without planning (generation-only overlap).

    Use as a context manager (or call :meth:`close`); the prep thread,
    its held core and span drain are all released on exit.  Exceptions
    raised by the source iterator or ``plan_fn`` surface on the consumer
    at the position in the stream where they occurred, annotated with the
    pipeline stage.
    """

    def __init__(
        self,
        source: Iterator[Batch],
        plan_fn: Callable[[Batch], dict[str, TablePlan]] | None = None,
        tracer=None,
        stage: str = "prep",
    ) -> None:
        self.stats = PipelineStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stage = stage
        self._source = iter(source)
        self._plan_fn = plan_fn
        self._buffer = _Buffer(_DEPTH)
        # Prep-thread span records; the Tracer is single-threaded (strict
        # nesting stack), so the prep thread logs (name, t0, dur, attrs)
        # tuples and the consumer replays them onto lane PREP_TID.  Both
        # threads read the same perf_counter clock, so the lanes align.
        self._spans: deque = deque()
        self._thread: threading.Thread | None = None
        self._core = ExitStack()  # the prep thread's, start() to close()
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "PrefetchPipeline":
        if self._started:
            return self
        self._started = True
        self._core.enter_context(hold_core())
        self._thread = threading.Thread(
            target=self._prep_loop, name=f"pipeline-{self.stage}", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buffer.close()
        if self._thread is not None:
            self._thread.join()
        self._core.close()
        self._drain_spans()

    def __enter__(self) -> "PrefetchPipeline":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- producer ------------------------------------------------------------

    def _prep_loop(self) -> None:
        try:
            # t0 is taken before each pull: generating the batch is busy
            # time, like planning it
            t0 = time.perf_counter()
            for seq, batch in enumerate(self._source):
                plans = self._plan_fn(batch) if self._plan_fn is not None else None
                busy = time.perf_counter() - t0
                self.stats.prep_busy_s += busy
                self.stats.batches += 1
                self._spans.append(
                    (f"pipeline.{self.stage}", t0, busy, {"seq": seq})
                )
                t1 = time.perf_counter()
                stalled = self._buffer.put(PreparedBatch(batch, plans, seq))
                self.stats.prep_stall_s += stalled
                if stalled > 1e-6:
                    self._spans.append(
                        (f"pipeline.{self.stage}_stall", t1, stalled, {"seq": seq})
                    )
                t0 = time.perf_counter()
        except _Closed:
            return  # consumer went away first; nothing to report
        except BaseException as exc:  # noqa: BLE001 - replayed on the consumer
            try:
                self._buffer.put(_Failure(exc))
            except _Closed:
                pass
        else:
            try:
                self._buffer.put(_Done())
            except _Closed:
                pass

    # -- consumer ------------------------------------------------------------

    def __iter__(self) -> "PrefetchPipeline":
        return self.start()

    def __next__(self) -> PreparedBatch:
        if not self._started:
            self.start()
        try:
            item, waited = self._buffer.get()
        except _Closed:
            raise StopIteration
        self.stats.compute_stall_s += waited
        if waited > 1e-6:
            self.tracer.record(
                "pipeline.compute_stall",
                "pipeline",
                time.perf_counter() - waited,
                waited,
            )
        self._drain_spans()
        if isinstance(item, _Done):
            raise StopIteration
        if isinstance(item, _Failure):
            exc = item.exc
            if hasattr(exc, "add_note"):  # 3.11+
                exc.add_note(
                    f"raised on the pipeline prep thread (stage={self.stage!r})"
                )
            raise exc
        return item

    def _drain_spans(self) -> None:
        """Replay prep-thread spans onto the tracer's prep lane."""
        while True:
            try:
                name, t0, dur, attrs = self._spans.popleft()
            except IndexError:
                return
            self.tracer.record(name, "pipeline", t0, dur, tid=PREP_TID, **attrs)
