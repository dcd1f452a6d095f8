"""The training data path: every batch reaches a step through
:class:`PrefetchPipeline`, prepared inline when the step loop pulls it.

The paper's efficiency taxonomy (§IV–V) charges a DLRM step not just for
its FLOPs but for everything serialized around them: batch materialization,
ragged truncation, index bounds checks, the CSR/coalesce bookkeeping of the
embedding ops, and frequency-stats ingestion for the tiered store.  All of
that work is a pure function of the *data stream* — it never reads a weight.

:class:`PrefetchPipeline` pulls batches from the source iterator (in
order — the stream's rng consumption is untouched), builds every table's
:class:`~repro.core.embedding.TablePlan` and hands
:class:`~repro.core.model.PreparedBatch` objects to the consumer.  The prep
runs on the consumer, inside ``next()``, and the consumer waits for all of
it: there is no prep thread and no buffer, so a run pulls exactly the
batches it steps.  A prep thread was measured and cut: on a host with no
spare core it bought no throughput (``docs/perf_notes.md``), and
Kalamkar et al. (``2005.04680``) hide prep by ordering the work, not by
adding threads.

The pipeline keeps the run's prep ledger (:class:`PipelineStats`) and
records each batch's prep as a ``pipeline.<stage>`` span on the consumer's
:class:`~repro.obs.tracer.Tracer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .core.embedding import TablePlan
from .core.model import Batch, PreparedBatch
from .obs.tracer import NULL_TRACER

__all__ = ["PipelineStats", "PreparedBatch", "PrefetchPipeline"]


@dataclass
class PipelineStats:
    """The prep ledger of one run through a :class:`PrefetchPipeline`."""

    #: Wall-clock seconds spent preparing batches (generation + plans); the
    #: consumer waited for all of them.
    prep_busy_s: float = 0.0
    #: Batches fully prepared.
    batches: int = 0

    def as_dict(self) -> dict[str, float]:
        """The ledger under the stall vocabulary its readers share: with the
        prep inline nothing waits on a full buffer (``prep_stall_s`` 0), the
        consumer stalls for all of the prep and none of it is hidden."""
        return {
            "prep_busy_s": self.prep_busy_s,
            "prep_stall_s": 0.0,
            "compute_stall_s": self.prep_busy_s,
            "overlap_fraction": 0.0,
            "batches": self.batches,
        }


class PrefetchPipeline:
    """Batch preparation on the consumer.

    Wraps a batch iterator; iterating the pipeline yields
    :class:`~repro.core.model.PreparedBatch` objects in exactly the source
    order.  ``plan_fn`` maps a batch to its per-table plans (typically
    ``lambda b: collection.plan_batch(b.sparse)``); ``None`` prepares
    batches without planning.  Exceptions raised by the source iterator or
    ``plan_fn`` surface on the consumer at the position in the stream where
    they occurred.  Once the source has ended or raised, every further
    ``next()`` raises :class:`StopIteration`.
    """

    def __init__(
        self,
        source: Iterator[Batch],
        plan_fn: Callable[[Batch], dict[str, TablePlan]] | None = None,
        tracer=None,
        stage: str = "prep",
    ) -> None:
        self.stats = PipelineStats()
        # The generator holds the stats, not the pipeline: a reference back
        # would make a cycle that keeps the last batch, its plans and the
        # source alive until the cyclic collector runs.
        self._batches = _prepare(
            iter(source), plan_fn,
            tracer if tracer is not None else NULL_TRACER, f"pipeline.{stage}",
            self.stats,
        )

    def __iter__(self) -> "PrefetchPipeline":
        return self

    def __next__(self) -> PreparedBatch:
        return next(self._batches)


def _prepare(
    source, plan_fn, tracer, span: str, stats: PipelineStats
) -> Iterator[PreparedBatch]:
    while True:
        # t0 is taken before the pull: generating the batch is prep time,
        # like planning it
        t0 = time.perf_counter()
        try:
            batch = next(source)
        except StopIteration:
            return
        plans = plan_fn(batch) if plan_fn is not None else None
        busy = time.perf_counter() - t0
        seq = stats.batches
        stats.prep_busy_s += busy
        stats.batches += 1
        tracer.record(span, "pipeline", t0, busy, seq=seq)
        yield PreparedBatch(batch, plans, seq)
