"""Functional elastic-averaging SGD (paper §III-A.6).

The paper's production training uses *asynchronous* synchronization:
Elastic-Averaging SGD (EASGD) between trainers and the dense parameter
server, and Hogwild!-style lock-free updates within a trainer.  These have
real model-quality consequences (§VI-C: fewer trainers and a higher sync
rate improved GPU model quality), so :class:`EASGDTrainer` implements them
*functionally* — actual numpy training, not just timing models: K worker
replicas elastically coupled to a center copy of the dense parameters,
with embedding tables shared (they live on sparse parameter servers and
are updated Hogwild-style by every worker).  Each worker's local step is
:meth:`repro.core.training.Trainer.train_step`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from ..core.config import ModelConfig
from ..core.model import Batch, DLRM
from ..core.optim import Adagrad
from ..core.training import Trainer
from ..obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["EASGDConfig", "EASGDTrainer"]


@dataclass(frozen=True)
class EASGDConfig:
    """Elastic-averaging hyper-parameters.

    ``alpha`` is the elastic coupling strength (the paper's reference [57]
    uses ``alpha = beta / num_workers`` with ``beta ~= 0.9``); ``tau`` is
    the number of local steps between elastic syncs.
    """

    num_workers: int = 2
    alpha: float = 0.3
    tau: int = 4

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")


class EASGDTrainer:
    """K elastically-coupled worker replicas with shared embedding tables.

    Dense parameters: each worker holds its own copy; every ``tau`` steps
    worker ``i`` and the center ``x~`` exchange elastic forces::

        x_i <- x_i - alpha * (x_i - x~)
        x~  <- x~  + alpha * (x_i - x~)

    Embedding tables: one shared physical copy (the sparse-PS model); each
    worker's sparse gradients are applied directly — the Hogwild analogue
    for the sparse half.  Each worker steps through its own
    :class:`~repro.core.training.Trainer`, whose Adagrad holds the worker's
    dense state and is built on the one shared accumulator per table.
    """

    def __init__(
        self,
        config: ModelConfig,
        easgd: EASGDConfig,
        lr: float = 0.01,
        rng: np.random.Generator | int | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.config = config
        self.easgd = easgd
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lr = lr
        # One "reference" model owns the shared embedding tables and serves
        # as the center for evaluation.
        self.center_model = DLRM(config, rng=rng)
        self.center_state = self.center_model.get_dense_state()
        #: The tables' Adagrad accumulators live with the shared tables (as
        #: on a sparse parameter server), not per worker.
        self.accumulators = [
            np.zeros_like(t.weight) for t in self.center_model.embedding_tables()
        ]
        self.workers: list[DLRM] = []
        self.trainers: list[Trainer] = []
        center = self.center_model
        for _ in range(easgd.num_workers):
            # A copy of the center that shares its embedding collection: all
            # workers look up and update the same arrays, like trainers
            # hitting one sparse PS, and draw no tables of their own.
            worker = copy.deepcopy(center, memo={id(center.embeddings): center.embeddings})
            self.workers.append(worker)
            self.trainers.append(self._trainer(worker))
        self.steps = 0
        self.examples_seen = 0
        #: Worker liveness: dropped workers take no steps and are skipped by
        #: the elastic sync until they rejoin (host failure + restore).
        self.active = [True] * easgd.num_workers
        self.drops = 0
        self.rejoins = 0

    def _trainer(self, worker: DLRM) -> Trainer:
        """A worker's trainer: fresh dense Adagrad state, shared table state."""
        optimizer = Adagrad(
            worker.dense_parameters(),
            worker.embedding_tables(),
            lr=self._lr,
            accumulators=self.accumulators,
        )
        return Trainer(worker, lambda _: optimizer)

    # -- membership (worker dropout / rejoin, paper §III-A.6) ----------------

    def active_workers(self) -> list[int]:
        """Indices of workers currently participating."""
        return [i for i, up in enumerate(self.active) if up]

    def drop_worker(self, index: int) -> None:
        """A worker host fails: it stops contributing steps and elastic
        syncs.  Training continues on the survivors — the async-resilience
        property the paper's production design relies on."""
        if not 0 <= index < self.easgd.num_workers:
            raise ValueError(f"no worker {index}")
        if not self.active[index]:
            raise ValueError(f"worker {index} is already down")
        if sum(self.active) == 1:
            raise ValueError("cannot drop the last active worker")
        self.active[index] = False
        self.drops += 1

    def rejoin_worker(self, index: int) -> None:
        """The failed worker comes back: it restores its dense replica from
        the center copy (the EASGD 'checkpoint' every worker is elastically
        tied to) with fresh optimizer state, exactly as a restarted host
        re-registers with the dense parameter server."""
        if not 0 <= index < self.easgd.num_workers:
            raise ValueError(f"no worker {index}")
        if self.active[index]:
            raise ValueError(f"worker {index} is not down")
        worker = self.workers[index]
        worker.set_dense_state(self.center_state)
        self.trainers[index] = self._trainer(worker)
        self.active[index] = True
        self.rejoins += 1

    def _elastic_sync(self, worker_idx: int) -> None:
        alpha = self.easgd.alpha
        worker = self.workers[worker_idx]
        for p, center in zip(worker.dense_parameters(), self.center_state):
            diff = p.value - center
            p.value -= alpha * diff
            center += alpha * diff

    def round(self, batches: list[Batch]) -> float:
        """One round: each *active* worker takes one local step on its own
        batch (one batch per active worker, in index order).

        Returns the mean worker loss.  Elastic syncs fire per-worker on
        their own step counters; dropped workers neither step nor sync.
        """
        live = self.active_workers()
        if len(batches) != len(live):
            raise ValueError(
                f"need {len(live)} batches (one per active worker), got {len(batches)}"
            )
        synced = (self.steps + 1) % self.easgd.tau == 0
        with self.tracer.span(
            "easgd_round",
            "iteration",
            step=self.steps,
            workers=len(live),
            tau=self.easgd.tau,
            synced=synced,
        ):
            losses = []
            for i, batch in zip(live, batches):
                with self.tracer.span("worker_step", "compute", worker=i, tid=i + 1):
                    # The shared tables' sparse update lands inside the
                    # worker's step — the Hogwild update sequence.
                    losses.append(self.trainers[i].train_step(batch))
                self.examples_seen += batch.size
            self.steps += 1
            if self.steps % self.easgd.tau == 0:
                with self.tracer.span(
                    "elastic_sync", "comm", alpha=self.easgd.alpha
                ):
                    for i in live:
                        self._elastic_sync(i)
        return float(np.mean(losses))

    def train(self, batch_stream: Iterator[Batch], max_examples: int) -> list[float]:
        """Run rounds until ``examples_seen`` reaches ``max_examples``;
        returns the loss history.  A stream that ends first raises, as
        :meth:`Trainer.train <repro.core.training.Trainer.train>` does."""
        if max_examples < 1:
            raise ValueError("max_examples must be >= 1")
        history = []
        batch_stream = iter(batch_stream)
        while self.examples_seen < max_examples:
            needed = len(self.active_workers())
            batches = list(islice(batch_stream, needed))
            if len(batches) < needed:
                pulled = sum(b.size for b in batches)
                raise ValueError(
                    f"batch stream ended after {self.examples_seen} examples "
                    f"({len(history)} rounds; {pulled} more pulled for an "
                    f"unfinished round), short of the training budget "
                    f"(max_examples={max_examples})"
                )
            history.append(self.round(batches))
        return history

    def center_dlrm(self) -> DLRM:
        """The center model (shared embeddings + center dense parameters),
        which is what gets evaluated and deployed."""
        self.center_model.set_dense_state(self.center_state)
        return self.center_model
