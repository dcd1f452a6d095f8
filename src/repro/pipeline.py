"""The training data path: every batch reaches a step through a prefetch
pipeline, run inline (depth 0) or behind a prep thread (depth 2).

The paper's efficiency taxonomy (§IV–V) charges a DLRM step not just for
its FLOPs but for everything serialized around them: batch materialization,
ragged truncation, index bounds checks, the CSR/coalesce bookkeeping of the
embedding ops, and frequency-stats ingestion for the tiered store.  All of
that work is a pure function of the *data stream* — it never reads a weight
— so it can run concurrently with the previous step's compute without
changing a single bit of the result.

:class:`PrefetchPipeline` pulls batches from the source iterator (in
order — the stream's rng consumption is untouched), builds every table's
:class:`~repro.core.embedding.TablePlan` and hands
:class:`~repro.core.model.PreparedBatch` objects to the consumer.  Its
depth says where that prep runs.  At depth 0 (``threaded=False``) it runs
on the consumer, inside ``next()``: no thread, no buffer.  At depth
``_DEPTH`` (``threaded=True``) a background prep thread runs it, ahead of
the consumer by up to two buffered batches.
The plans come from the same ``plan_forward`` code path at every depth,
so bit-identity between the depths is by construction, not by test alone
(though ``tests/test_pipeline.py`` pins it property-style anyway).

The pipeline also keeps the ledger that makes runs self-diagnosing
(:class:`PipelineStats`), at every depth:

* ``compute_stall_s`` — time the consumer blocked on an empty buffer: the
  run is **prep-bound** (the paper's "data ingestion dominates" regime);
* ``prep_stall_s`` — time the producer blocked on a full buffer: the run
  is **compute-bound** and prefetch is pure win;
* ``overlap_fraction`` — the share of prep work hidden behind compute.

At depth 0 the consumer waits for all of the prep, so ``compute_stall_s``
equals ``prep_busy_s``, ``prep_stall_s`` is 0 and so is the overlap.

Prep activity is recorded as complete spans on the consumer's
:class:`~repro.obs.tracer.Tracer`: inline on the consumer's lane
(``tid=0``), from the prep thread on a separate Chrome-trace lane
(``tid=1``), so ``python -m repro trace pipeline`` shows the two
timelines interleaving.

While a pipeline is running its prep thread holds one of the process's
cores (:func:`repro.core.lanes.hold_core`), so the lanes of a train step
and :func:`repro.runtime.default_workers` size themselves from the cores
left and do not hand the prep thread's core to a lane or a sweep pool.
At depth 0 there is no prep thread and no core is held.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterator

from .core.embedding import TablePlan
from .core.lanes import hold_core
from .core.model import Batch, PreparedBatch
from .obs.tracer import NULL_TRACER

__all__ = ["PipelineStats", "PreparedBatch", "PrefetchPipeline"]

#: Chrome-trace thread lane for prep-thread spans (consumer spans stay on 0).
PREP_TID = 1


#: Slots in the prep -> consumer buffer of a pipelined (``pipeline=True``)
#: run.  Two is classic double buffering: one batch being consumed, one
#: being prepared, and the producer blocks rather than running unboundedly
#: ahead (which would both hoard memory and, for tiered tables, let
#: frequency stats drift arbitrarily far ahead of the step consuming them).
_DEPTH = 2


@dataclass
class PipelineStats:
    """The stall ledger of one run through a :class:`PrefetchPipeline`.

    All times are wall-clock seconds measured with ``time.perf_counter``
    on the thread that experienced the wait.
    """

    #: Seconds spent preparing batches (generation + plans).
    prep_busy_s: float = 0.0
    #: Seconds the prep thread blocked on a full buffer (compute-bound).
    prep_stall_s: float = 0.0
    #: Seconds the consumer waited for a batch (prep-bound); at depth 0,
    #: all of the prep.
    compute_stall_s: float = 0.0
    #: Batches fully prepared.
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
    """Batch preparation, inline (depth 0, ``threaded=False``) or on a
    background thread behind a bounded two-slot buffer.

    Wraps a batch iterator; iterating the pipeline yields
    :class:`~repro.core.model.PreparedBatch` objects in exactly the source
    order.  ``plan_fn`` maps a batch to its per-table plans (typically
    ``lambda b: collection.plan_batch(b.sparse)``); ``None`` prepares
    batches without planning (generation-only overlap).

    Use as a context manager (or call :meth:`close`); the prep thread,
    its held core and span drain are all released on exit.  Exceptions
    raised by the source iterator or ``plan_fn`` surface on the consumer
    at the position in the stream where they occurred — from the prep
    thread annotated with the pipeline stage.  Once the source has ended
    or raised, every further ``next()`` raises :class:`StopIteration`.
    """

    def __init__(
        self,
        source: Iterator[Batch],
        plan_fn: Callable[[Batch], dict[str, TablePlan]] | None = None,
        tracer=None,
        stage: str = "prep",
        threaded: bool = True,
    ) -> None:
        self.stats = PipelineStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stage = stage
        #: Buffered batches ahead of the consumer; 0 = prepared inline.
        self.depth = _DEPTH if threaded else 0
        self._source = iter(source)
        self._plan_fn = plan_fn
        self._buffer = _Buffer(self.depth)
        # Prep-thread span records; the Tracer is single-threaded (strict
        # nesting stack), so the prep thread logs (name, t0, dur, attrs)
        # tuples and the consumer replays them onto lane PREP_TID.  Both
        # threads read the same perf_counter clock, so the lanes align.
        self._spans: deque = deque()
        self._thread: threading.Thread | None = None
        self._core = ExitStack()  # the prep thread's, start() to close()
        self._started = False
        self._closed = False
        self._exhausted = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "PrefetchPipeline":
        if self._started:
            return self
        self._started = True
        if self.depth == 0:
            return self
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
        if self._exhausted:
            raise StopIteration
        if not self._started:
            self.start()
        if self.depth == 0:
            return self._prepare()
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
        if isinstance(item, (_Done, _Failure)):
            self._exhausted = True  # the prep thread has exited
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

    def _prepare(self) -> PreparedBatch:
        """Depth 0: pull and plan the next batch here, on the consumer,
        which waits for all of it."""
        t0 = time.perf_counter()
        try:
            batch = next(self._source)
            plans = self._plan_fn(batch) if self._plan_fn is not None else None
        except BaseException:
            self._exhausted = True
            raise
        busy = time.perf_counter() - t0
        stats = self.stats
        seq = stats.batches
        stats.prep_busy_s += busy
        stats.compute_stall_s += busy
        stats.batches += 1
        self.tracer.record(f"pipeline.{self.stage}", "pipeline", t0, busy, seq=seq)
        return PreparedBatch(batch, plans, seq)

    def _drain_spans(self) -> None:
        """Replay prep-thread spans onto the tracer's prep lane."""
        while True:
            try:
                name, t0, dur, attrs = self._spans.popleft()
            except IndexError:
                return
            self.tracer.record(name, "pipeline", t0, dur, tid=PREP_TID, **attrs)
