"""Whole-table lanes: the sparse half of a train step on more than one core.

The sparse half of a step — every table's pooled lookup, its backward and
its optimizer update — is a loop of independent, latency-bound per-table
calls (Gupta et al., ``1906.03109``: memory-level parallelism, not FLOPs,
bounds them).  :class:`Lanes` runs such a loop on ``width`` threads, split
by whole tables: the caller is lane 0, lanes 1.. are helper threads.  A
table's calls are exactly the serial loop's, and tables share no written
state, so the result is bit-identical to one lane by construction.

Only a table whose row traffic in the phase reaches :data:`LANE_MIN_BYTES`
takes a lane; smaller ones stay on the caller, where a thread handoff would
cost more than it hides.  Lanes are balanced by bytes.

:func:`lane_count` is the width a step may use;
:class:`~repro.core.training.Trainer` decides it once per step and binds
its lanes to the model's embedding collection and its optimizer for the
duration of :meth:`~repro.core.training.Trainer.train_step` only.

Rules for code running on a lane: it touches only its own table's state
and the arena through :class:`~repro.core.dense_kernels.Workspace`'s
locked ``get`` / ``get_rows`` (buffers shared by all tables are sized on
the caller before dispatch), and it opens no tracer span — the tracer is
single-threaded.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Sequence, TypeVar

__all__ = ["LANE_MIN_BYTES", "THREAD_PREFIX", "Lanes", "lane_count", "spread"]

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

#: Name prefix of every helper thread (leak checks look for it).
THREAD_PREFIX = "sparse-lane-"


def lane_count(world: int = 1) -> int:
    """Lanes one train step may use: the cores this process may run on,
    less those reserved by service threads (the prefetch pipeline's prep
    thread), shared among the ``world`` replicas on this host."""
    # repro.runtime imports repro.core (through repro.resilience)
    from ..runtime.runner import available_cores, reserved_cores

    return max(1, (available_cores() - reserved_cores()) // world)


class _Helper:
    """One helper thread and its two queues: jobs in, outcomes out."""

    def __init__(self, lane: int) -> None:
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=_serve, args=(lane, self.inbox, self.outbox),
            name=f"{THREAD_PREFIX}{lane}", daemon=True,
        )
        self.thread.start()


def _serve(lane: int, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    while (job := inbox.get()) is not None:
        outbox.put(_run_lane(lane, *job))


def _run_lane(lane: int, fn: Callable, items: list) -> BaseException | None:
    """``fn(item, lane)`` for each item, up to the first that raises; the
    exception is returned, to be raised on the caller."""
    try:
        for item in items:
            fn(item, lane)
    except BaseException as exc:  # re-raised on the caller by Lanes.run
        return exc
    return None


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
    """``width`` lanes for per-table work: the caller and ``width - 1``
    helper threads, started on first use, restarted in a forked child (a
    parent's threads do not exist there) and stopped by :meth:`close`."""

    def __init__(self) -> None:
        #: Lanes the next :meth:`run` may use.
        self.width = 1
        self._helpers: list[_Helper] = []
        self._pid = os.getpid()

    def run(
        self,
        fn: Callable[[T, int], None],
        items: Sequence[T],
        cost: Callable[[T], int],
    ) -> None:
        """``fn(item, lane)`` for every item, each on one lane by its
        ``cost`` in bytes.  Returns when every lane has stopped; the
        exception of the lowest lane that raised is then raised here."""
        plan = _assign([cost(item) for item in items], self.width)
        busy = [(k, lane) for k, lane in enumerate(plan) if k and lane]
        if busy:
            self._start(max(k for k, _ in busy))
        for k, lane in busy:
            self._helpers[k - 1].inbox.put((fn, [items[i] for i in lane]))
        errors = [_run_lane(0, fn, [items[i] for i in plan[0]])]
        errors += [self._helpers[k - 1].outbox.get() for k, _ in busy]
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


def spread(
    lanes: Lanes | None,
    fn: Callable[[T, int], None],
    items: Sequence[T],
    cost: Callable[[T], int],
) -> None:
    """``fn(item, 0)`` for each item in order — the serial loop — unless
    ``lanes`` offers more than one lane (:meth:`Lanes.run`); ``cost`` is
    only evaluated then."""
    if lanes is None or lanes.width < 2:
        for item in items:
            fn(item, 0)
    else:
        lanes.run(fn, items, cost)
