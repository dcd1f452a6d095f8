"""The training step every trainer in the repo runs, and the evaluation harness.

:meth:`Trainer.train_step` is the one place that sequences zero-grad ->
forward -> loss -> backward -> optimizer: the accuracy experiments (Figure
15) drive it over synthetic click data for a fixed example budget, EASGD's
workers (:mod:`repro.distributed.sync`) take their local steps through it,
the hybrid-parallel workers of :mod:`repro.distributed.mp` hang their
gradient exchanges off the same step through the seam documented on
:class:`Trainer`, and their serial reference steps all ranks' batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..obs.registry import MetricsRegistry
from ..obs.tracer import NULL_TRACER, NullTracer, Tracer
from .loss import BCEWithLogitsLoss, sigmoid
from .metrics import auc, normalized_entropy
from .model import Batch, DLRM

__all__ = ["TrainResult", "Trainer", "evaluate"]


@dataclass
class TrainResult:
    """Outcome of one training run."""

    steps: int
    examples_seen: int
    final_loss: float
    loss_history: list[float] = field(default_factory=list)
    #: The run's prep ledger (:func:`prep_ledger`): the seconds
    #: :meth:`Trainer.train` spent pulling and planning its batches.
    pipeline: dict = field(default_factory=dict)

    @property
    def smoothed_final_loss(self) -> float:
        """Mean of the last 10% of steps — less noisy than the last batch."""
        tail = max(1, len(self.loss_history) // 10)
        return float(np.mean(self.loss_history[-tail:]))


def prep_ledger(prep_busy_s: float, batches: int) -> dict[str, float]:
    """The prep ledger of ``batches`` batches prepared inline in
    ``prep_busy_s`` seconds, under the stall vocabulary its readers share:
    nothing waits on a full buffer (``prep_stall_s`` 0), the step loop
    stalls for all of the prep and none of it is hidden."""
    return {
        "prep_busy_s": prep_busy_s,
        "prep_stall_s": 0.0,
        "compute_stall_s": prep_busy_s,
        "overlap_fraction": 0.0,
        "batches": batches,
    }


def evaluate(model: DLRM, batches: Iterable[Batch]) -> dict[str, float]:
    """Evaluate NE / log-loss / AUC over held-out batches."""
    all_preds: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    for batch in batches:
        all_preds.append(model.predict_proba(batch))
        all_labels.append(batch.labels)
    if not all_preds:
        raise ValueError("no evaluation batches provided")
    preds = np.concatenate(all_preds)
    labels = np.concatenate(all_labels)
    result = {
        "normalized_entropy": normalized_entropy(preds, labels),
        "log_loss": float(
            -np.mean(
                labels * np.log(np.clip(preds, 1e-12, 1))
                + (1 - labels) * np.log(np.clip(1 - preds, 1e-12, 1))
            )
        ),
        "num_examples": float(len(labels)),
    }
    if 0 < labels.sum() < len(labels):
        result["auc"] = auc(preds, labels)
    return result


class Trainer:
    """Drives forward/backward/step over a batch stream.

    The optimizer is built by ``optimizer_factory(model)`` so hyper-parameter
    sweeps (:mod:`repro.core.tuning`) can rebuild fresh state per trial.

    The seam for a model that is one of ``world`` replicas sharing each step
    (the :mod:`repro.distributed.mp` worker) is a subclass setting two
    members.  ``world``: the loss gradient is scaled by ``1 / world`` (by
    ``1 / (world * W)`` over W micro-batches) — the same constant on every
    replica, so the summed gradients are the global-batch gradient with
    identical rounding on every path.  ``on_stage(self, stage)``: fired at
    ``"loss"`` (each loss forward done) and once at ``"grads"`` (backward
    done, right before ``optimizer.step()``: the
    gradients it is to apply must be in place on return — where a replica
    exchanges them).  The base has no callback and ``world = 1``.

    Each step — the tables' lookups, their backward and the optimizer's
    sparse loop, the MLP stacks' training pass, the dot interaction and the
    optimizer's dense loop — runs on the process's lanes as the model binds
    them (:meth:`~repro.core.model.DLRM.bound_lanes`, plus the optimizer):
    :func:`~repro.core.lanes.lane_count` of them, decided at the top of
    every :meth:`train_step` — the process's free cores: its share of the
    process tree's (a replica's worker process took its share when it
    started).  One lane is the serial loop.  The MLP stacks take lanes
    only while the loaded BLAS reports one thread
    (:func:`~repro.core.lanes.blas_threads`); otherwise the BLAS's own
    threads already run each GEMM on the cores.  Inference
    (:meth:`~repro.core.model.DLRM.predict_proba`) gets the same lanes.
    """

    world = 1
    on_stage: Callable[[str], None] | None = None

    def __init__(
        self,
        model: DLRM,
        optimizer_factory: Callable[[DLRM], object],
        loss: BCEWithLogitsLoss | None = None,
        tracer: Tracer | NullTracer | None = None,
        metrics: "MetricsRegistry | None" = None,
        pipeline: bool = False,
    ) -> None:
        self.model = model
        self.optimizer = optimizer_factory(model)
        #: The model's compute backend; the default loss shares it and
        #: trace spans carry its name.
        self.backend = model.backend
        # The default loss joins the model's backend and workspace arena so
        # e.g. the fused sigmoid+BCE kernel runs allocation-free
        # (bit-identical either way).
        self.loss = loss or BCEWithLogitsLoss(
            workspace=model.workspace,
            backend=self.backend,
        )
        #: Whether the model runs a workspace-backed (fused-style) dense
        #: path (annotated on trace spans so Chrome traces distinguish
        #: fast-path slices).
        self.fused = model.workspace is not None
        #: Observability hook (see :mod:`repro.obs`); defaults to the no-op
        #: tracer, so instrumentation costs nothing unless opted in.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`repro.obs.MetricsRegistry`.  When the model's
        #: embedding tables are tiered stores (:mod:`repro.tiering`), each
        #: step publishes per-table tier counters (hits/misses/promotions)
        #: and simulated-cost gauges, and emits a ``tier`` trace span.
        self.metrics = metrics
        #: Tiered embedding tables, detected by duck type (``is_tiered``)
        #: so core never imports repro.tiering.
        self._tiered_tables = [
            t for t in model.embedding_tables() if getattr(t, "is_tiered", False)
        ]
        # ``pipeline`` is accepted for the callers that still pass it and
        # moves no work: :meth:`train` prepares every batch inline.
        if not isinstance(pipeline, bool):
            raise TypeError(
                f"pipeline must be a bool, got {type(pipeline).__name__}"
            )
        self._step_index = 0

    # -- kill-and-restore ---------------------------------------------------

    @property
    def step_index(self) -> int:
        """Number of optimizer steps taken so far (resume cursor)."""
        return self._step_index

    def save_checkpoint(self, path) -> int:
        """Write model + optimizer state to ``path``; returns bytes written.

        Together with :meth:`load_checkpoint` this is the kill-and-restore
        path: a run interrupted after step *k* and restored from a step-*k*
        checkpoint continues bit-identically to an uninterrupted run (the
        guarantee pinned by ``tests/test_resilience.py``).
        """
        from .checkpoint import save_checkpoint

        with self.tracer.span("checkpoint_save", "checkpoint", step=self._step_index):
            return save_checkpoint(path, self.model, self.optimizer)

    def load_checkpoint(self, path, step_index: int | None = None) -> None:
        """Restore model + optimizer state in place.

        ``step_index`` (optional) resets the step cursor so traces/logs of
        a resumed run line up with the original timeline; it does not
        affect the numerics.
        """
        from .checkpoint import load_checkpoint

        with self.tracer.span("checkpoint_restore", "checkpoint"):
            load_checkpoint(path, self.model, self.optimizer)
        if step_index is not None:
            if step_index < 0:
                raise ValueError("step_index must be >= 0")
            self._step_index = step_index

    def train_step(self, batch: Batch | Sequence[Batch], plans=None) -> float | list[float]:
        """One forward/backward/update; returns the batch loss.

        ``plans`` are the batch's lookup plans
        (``model.embeddings.plan_batch(batch.sparse)``, what :meth:`train`
        builds for its batches); without them the batch is planned here
        first, so every step's lookups and tier accounting come from its
        own plans.  A sequence of W micro-batches (and of their plans) is
        stepped as one — their backwards accumulate in order, the loss
        gradient scaled by ``1 / (world * W)`` — and returns their losses:
        the hybrid trainer's serial reference (``run_hybrid_serial``)."""
        single = isinstance(batch, Batch)
        batches = (batch,) if single else tuple(batch)
        if plans is not None:
            plans = (plans,) if single else tuple(plans)
        if not batches or len(batches) != len(plans or batches):
            raise ValueError(f"got {len(batches)} micro-batches and {len(plans or ())} plans")
        scale = self.world * len(batches)  # 1: no multiply
        tracer = self.tracer
        fused = self.fused
        on_stage = self.on_stage
        losses = []
        with tracer.span(
            "train_step", "iteration",
            step=self._step_index, batch=sum(b.size for b in batches), fused=fused,
            backend=self.backend.name,
        ), self.model.bound_lanes(self.optimizer):
            if plans is None:
                plans = [self.model.embeddings.plan_batch(b.sparse) for b in batches]
            self.optimizer.zero_grad()
            for micro, micro_plans in zip(batches, plans):
                with tracer.span("forward", "compute", fused=fused):
                    with tracer.span("model_forward", "compute"):
                        logits = self.model.forward(micro, plans=micro_plans)
                    with tracer.span("loss_forward", "compute"):
                        losses.append(self.loss.forward(logits, micro.labels))
                    if on_stage is not None:
                        on_stage("loss")
                with tracer.span("backward", "compute", fused=fused):
                    with tracer.span("loss_backward", "compute"):
                        grad = self.loss.backward()
                        if scale > 1:
                            grad *= 1.0 / scale
                    with tracer.span("model_backward", "compute"):
                        self.model.backward(grad)
            if on_stage is not None:
                on_stage("grads")
            with tracer.span("optimizer_step", "compute", fused=fused):
                self.optimizer.step()
            if self._tiered_tables:
                for micro_plans in plans:
                    self._publish_tier_metrics(micro_plans)
        self._step_index += 1
        return losses[0] if single else losses

    def _publish_tier_metrics(self, plans) -> None:
        """Emit per-table tier counters/gauges and a ``tier`` trace span.

        Counters carry the per-step *delta* (so they accumulate correctly
        and merge across trainers); gauges carry run totals.  Runs without
        a metrics registry still get the trace span — tier placement is
        part of the step timeline either way.

        Every step's batch carries its tier accounting in its plans
        (captured at plan time), so the step publishes its own batch's
        delta and not the live stats.
        """
        for table in self._tiered_tables:
            name = table.spec.name
            delta = plans[name].tier_delta
            with self.tracer.span(
                "tier", "tier",
                table=name, step=self._step_index,
                hits=delta.hot_hits, misses=delta.cold_misses,
                promotions=delta.promotions,
                overhead_s=delta.overhead_s,
            ):
                pass
            if self.metrics is None:
                continue
            labels = {"table": name}
            m = self.metrics
            m.counter("tier_hot_hits").labels(**labels).inc(delta.hot_hits)
            m.counter("tier_cold_misses").labels(**labels).inc(delta.cold_misses)
            m.counter("tier_promotions").labels(**labels).inc(delta.promotions)
            m.counter("tier_rejected").labels(**labels).inc(delta.rejected)
            m.counter("tier_overhead_s").labels(**labels).inc(delta.overhead_s)
            m.gauge("tier_hit_rate").labels(**labels).set(table.stats.hit_rate)
            m.gauge("tier_hot_rows").labels(**labels).set(table.hot_rows)

    def train(
        self,
        batches: Iterator[Batch],
        max_examples: int | None = None,
        max_steps: int | None = None,
    ) -> TrainResult:
        """Train until an example or step budget is exhausted.

        Figure 15's protocol fixes the *example* budget so that larger batch
        sizes take proportionally fewer optimizer steps — the mechanism
        behind the accuracy gap the paper reports.

        The loop prepares each batch when it pulls it: the pull (the
        batch's generation) and its lookup plans are timed, recorded as a
        ``pipeline.prep`` span on the trainer's tracer and summed into
        :attr:`TrainResult.pipeline`.  It pulls exactly the batches it
        steps, under a step or an example budget, so one iterator can be
        shared across several ``train`` calls (checkpoint resume).
        """
        if max_examples is None and max_steps is None:
            raise ValueError("provide max_examples and/or max_steps")
        budget = f"max_examples={max_examples}, max_steps={max_steps}"
        plan_batch = self.model.embeddings.plan_batch
        history: list[float] = []
        examples = 0
        prep_s = 0.0
        batches = iter(batches)
        # Check budgets *before* pulling from the stream: the iterator may
        # be shared (e.g. resuming after a checkpoint restore), and pulling
        # a batch that is then discarded would silently skip data.
        while True:
            if max_steps is not None and len(history) >= max_steps:
                break
            if max_examples is not None and examples >= max_examples:
                break
            # t0 is taken before the pull: generating the batch is prep
            # time, like planning it
            t0 = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                # The stream is only pulled while every budget is still
                # open, so it ran dry early; silently returning would
                # misreport the run as having consumed its budget.
                if not history:
                    raise ValueError(
                        f"batch stream was empty before the first step (budget: {budget})"
                    ) from None
                raise ValueError(
                    f"batch stream ended after {examples} examples ({len(history)} steps), "
                    f"short of the training budget ({budget})"
                ) from None
            plans = plan_batch(batch.sparse)
            busy = time.perf_counter() - t0
            self.tracer.record("pipeline.prep", "pipeline", t0, busy, seq=len(history))
            prep_s += busy
            history.append(self.train_step(batch, plans))
            # The final batch may overshoot the example budget; every one of
            # its examples contributed to the last gradient, so all of them
            # count toward ``examples_seen`` (it can exceed ``max_examples``
            # by at most one batch).
            examples += batch.size
        if not history:
            raise ValueError(f"budget permits no training steps (budget: {budget})")
        return TrainResult(
            steps=len(history),
            examples_seen=examples,
            final_loss=history[-1],
            loss_history=history,
            pipeline=prep_ledger(prep_s, len(history)),
        )
