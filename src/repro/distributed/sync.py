"""Functional gradient-synchronization algorithms (paper §III-A.6).

The paper's production training uses *asynchronous* synchronization:
Elastic-Averaging SGD (EASGD) between trainers and the dense parameter
server, and Hogwild!-style lock-free updates within a trainer.  These have
real model-quality consequences (§VI-C: fewer trainers and a higher sync
rate improved GPU model quality), so this module implements them
*functionally* — actual numpy training, not just timing models:

* :class:`EASGDTrainer` — K worker replicas elastically coupled to a center
  copy of the dense parameters; embedding tables are shared (they live on
  sparse parameter servers and are updated Hogwild-style by every worker).
* :class:`DelayedGradientTrainer` — Hogwild-as-staleness: gradients are
  computed on current parameters but applied ``staleness`` steps later,
  the standard sequential model of lock-free asynchrony.
* :class:`SyncSGDTrainer` — the fully-synchronous baseline: K workers'
  gradients are averaged every step (what a single GPU server with a big
  global batch effectively does).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.config import ModelConfig
from ..core.embedding import SparseGrad
from ..core.loss import BCEWithLogitsLoss
from ..core.model import Batch, DLRM
from ..core.optim import Adagrad
from ..obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ClusterStalledError",
    "EASGDConfig",
    "EASGDTrainer",
    "DelayedGradientTrainer",
    "SyncSGDTrainer",
    "ShadowSyncTrainer",
]


class ClusterStalledError(RuntimeError):
    """A fully-synchronous step cannot proceed: a worker is down.

    This is the functional face of the paper's resilience argument
    (§III-A.6): synchronous training blocks on every member, so a single
    failed worker stalls the whole cluster until it is restored, while the
    asynchronous trainers below keep making progress on survivors.
    """

    def __init__(self, dropped: list[int]) -> None:
        super().__init__(
            f"synchronous step requires all workers; worker(s) {dropped} are down"
        )
        self.dropped = dropped


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
    for the sparse half.
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
        # One "reference" model owns the shared embedding tables and serves
        # as the center for evaluation.
        self.center_model = DLRM(config, rng=rng)
        self.center_state = self.center_model.get_dense_state()
        # The sparse optimizer state lives with the shared tables (as on a
        # sparse parameter server), not per worker.
        self.sparse_optimizer = Adagrad(
            [], self.center_model.embedding_tables(), lr=lr
        )
        self.workers: list[DLRM] = []
        self.optimizers: list[Adagrad] = []
        for _ in range(easgd.num_workers):
            worker = DLRM(config, rng=rng)
            # Share the embedding tables physically: all workers look up and
            # update the same arrays, like trainers hitting one sparse PS.
            worker.embeddings = self.center_model.embeddings
            worker._feature_order = self.center_model._feature_order
            worker.set_dense_state(self.center_state)
            self.workers.append(worker)
            self.optimizers.append(Adagrad(worker.dense_parameters(), [], lr=lr))
        self.loss = BCEWithLogitsLoss()
        self.steps = 0
        self.examples_seen = 0
        self._lr = lr
        #: Worker liveness: dropped workers take no steps and are skipped by
        #: the elastic sync until they rejoin (host failure + restore).
        self.active = [True] * easgd.num_workers
        self.drops = 0
        self.rejoins = 0

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
        self.optimizers[index] = Adagrad(worker.dense_parameters(), [], lr=self._lr)
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
                worker, opt = self.workers[i], self.optimizers[i]
                with self.tracer.span("worker_step", "compute", worker=i, tid=i + 1):
                    opt.zero_grad()
                    logits = worker.forward(batch)
                    losses.append(self.loss.forward(logits, batch.labels))
                    worker.backward(self.loss.backward())
                    opt.step()
                    # Apply this worker's sparse gradients to the shared tables
                    # immediately — the Hogwild update sequence.
                    self.sparse_optimizer.step()
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
        """Run rounds until the example budget is spent; returns loss history."""
        if max_examples < 1:
            raise ValueError("max_examples must be >= 1")
        history = []
        while self.examples_seen < max_examples:
            batches = [next(batch_stream) for _ in self.active_workers()]
            history.append(self.round(batches))
        return history

    def center_dlrm(self) -> DLRM:
        """The center model (shared embeddings + center dense parameters),
        which is what gets evaluated and deployed."""
        self.center_model.set_dense_state(self.center_state)
        return self.center_model


class DelayedGradientTrainer:
    """Hogwild-style asynchrony as bounded gradient staleness.

    Gradients are computed against the parameters of ``staleness`` steps ago
    (the sequential equivalent of lock-free threads racing on shared
    parameters).  ``staleness=0`` recovers plain sequential SGD.
    """

    def __init__(
        self,
        config: ModelConfig,
        staleness: int = 1,
        lr: float = 0.01,
        rng: np.random.Generator | int | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.model = DLRM(config, rng=rng)
        self.optimizer = Adagrad(
            self.model.dense_parameters(), self.model.embedding_tables(), lr=lr
        )
        self.staleness = staleness
        self.loss = BCEWithLogitsLoss()
        self._pending: deque[list[np.ndarray]] = deque()
        self._pending_sparse: deque[list] = deque()
        self.examples_seen = 0

    def step(self, batch: Batch) -> float:
        """Compute gradients now, apply the gradients from ``staleness``
        steps ago (bootstrapping applies nothing until the pipe fills)."""
        with self.tracer.span(
            "delayed_step",
            "iteration",
            staleness=self.staleness,
            pipe_fill=len(self._pending),
        ):
            return self._step(batch)

    def _step(self, batch: Batch) -> float:
        self.optimizer.zero_grad()
        logits = self.model.forward(batch)
        loss_value = self.loss.forward(logits, batch.labels)
        self.model.backward(self.loss.backward())
        # Capture freshly-computed gradients.
        dense_grads = [p.grad.copy() for p in self.model.dense_parameters()]
        # Copies, like the dense ones: a popped gradient's values sit in the
        # model's arena only until the table's next backward.
        sparse_grads = [
            g if g is None else SparseGrad(rows=g.rows, values=g.values.copy())
            for g in (t.pop_grad() for t in self.model.embedding_tables())
        ]
        self._pending.append(dense_grads)
        self._pending_sparse.append(sparse_grads)
        if len(self._pending) > self.staleness:
            stale_dense = self._pending.popleft()
            stale_sparse = self._pending_sparse.popleft()
            for p, g in zip(self.model.dense_parameters(), stale_dense):
                p.grad[...] = g
            for table, g in zip(self.model.embedding_tables(), stale_sparse):
                if g is not None:
                    table.sparse_grads.append(g)
            self.optimizer.step()
        self.examples_seen += batch.size
        return loss_value

    def train(self, batch_stream: Iterator[Batch], max_examples: int) -> list[float]:
        if max_examples < 1:
            raise ValueError("max_examples must be >= 1")
        history = []
        while self.examples_seen < max_examples:
            history.append(self.step(next(batch_stream)))
        return history


class SyncSGDTrainer:
    """Fully-synchronous data parallelism: one model, gradients averaged
    over K per-worker batches each step (equivalent to a K-times-larger
    global batch — the GPU big-batch regime of Figure 15)."""

    def __init__(
        self,
        config: ModelConfig,
        num_workers: int = 1,
        lr: float = 0.01,
        rng: np.random.Generator | int | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.model = DLRM(config, rng=rng)
        self.optimizer = Adagrad(
            self.model.dense_parameters(), self.model.embedding_tables(), lr=lr
        )
        self.num_workers = num_workers
        self.loss = BCEWithLogitsLoss()
        self.examples_seen = 0
        #: Worker liveness.  Unlike EASGD, a synchronous step *requires*
        #: every member: stepping with any worker down raises
        #: :class:`ClusterStalledError` — the stall the paper's async design
        #: avoids.
        self.active = [True] * num_workers
        self.stalled_steps = 0

    # -- membership ----------------------------------------------------------

    def drop_worker(self, index: int) -> None:
        """A worker host fails.  The all-reduce now blocks: every
        subsequent :meth:`step` raises until :meth:`restore_worker`."""
        if not 0 <= index < self.num_workers:
            raise ValueError(f"no worker {index}")
        if not self.active[index]:
            raise ValueError(f"worker {index} is already down")
        self.active[index] = False

    def restore_worker(self, index: int) -> None:
        """The worker is restored (from checkpoint) and the barrier clears."""
        if not 0 <= index < self.num_workers:
            raise ValueError(f"no worker {index}")
        if self.active[index]:
            raise ValueError(f"worker {index} is not down")
        self.active[index] = True

    def dropped_workers(self) -> list[int]:
        return [i for i, up in enumerate(self.active) if not up]

    def step(self, batches: list[Batch]) -> float:
        dropped = self.dropped_workers()
        if dropped:
            self.stalled_steps += 1
            raise ClusterStalledError(dropped)
        if len(batches) != self.num_workers:
            raise ValueError(f"need {self.num_workers} batches, got {len(batches)}")
        with self.tracer.span(
            "sync_sgd_step", "iteration", workers=self.num_workers, staleness=0
        ):
            self.optimizer.zero_grad()
            losses = []
            for i, batch in enumerate(batches):
                with self.tracer.span("worker_step", "compute", worker=i, tid=i + 1):
                    logits = self.model.forward(batch)
                    losses.append(self.loss.forward(logits, batch.labels))
                    self.model.backward(self.loss.backward())
                self.examples_seen += batch.size
            # Average the summed gradients over workers.
            with self.tracer.span("gradient_average", "comm"):
                for p in self.model.dense_parameters():
                    p.grad /= self.num_workers
                for table in self.model.embedding_tables():
                    for g in table.sparse_grads:
                        g.values /= self.num_workers
                self.optimizer.step()
        return float(np.mean(losses))

    def train(self, batch_stream: Iterator[Batch], max_examples: int) -> list[float]:
        if max_examples < 1:
            raise ValueError("max_examples must be >= 1")
        history = []
        while self.examples_seen < max_examples:
            batches = [next(batch_stream) for _ in range(self.num_workers)]
            history.append(self.step(batches))
        return history


class ShadowSyncTrainer:
    """ShadowSync-style background synchronization (paper §III-A.6).

    Facebook's ShadowSync decouples synchronization from training: parameter
    averaging happens in the background ("in the shadow") so no worker ever
    blocks on it.  The sequential-equivalent model implemented here: every
    round all workers take a local step, and one worker per round —
    round-robin, i.e. each worker syncs every ``num_workers`` rounds —
    averages its dense parameters with the center copy.  Embedding tables
    are shared (sparse-PS style), as in :class:`EASGDTrainer`.
    """

    def __init__(
        self,
        config: ModelConfig,
        num_workers: int = 2,
        mix: float = 0.5,
        lr: float = 0.01,
        rng: np.random.Generator | int | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not 0 < mix <= 1:
            raise ValueError(f"mix must be in (0, 1], got {mix}")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.num_workers = num_workers
        self.mix = mix
        self.center_model = DLRM(config, rng=rng)
        self.center_state = self.center_model.get_dense_state()
        self.sparse_optimizer = Adagrad([], self.center_model.embedding_tables(), lr=lr)
        self.workers: list[DLRM] = []
        self.optimizers: list[Adagrad] = []
        for _ in range(num_workers):
            worker = DLRM(config, rng=rng)
            worker.embeddings = self.center_model.embeddings
            worker._feature_order = self.center_model._feature_order
            worker.set_dense_state(self.center_state)
            self.workers.append(worker)
            self.optimizers.append(Adagrad(worker.dense_parameters(), [], lr=lr))
        self.loss = BCEWithLogitsLoss()
        self.rounds = 0
        self.examples_seen = 0

    def _background_sync(self, worker_idx: int) -> None:
        """Average one worker with the center (both move toward the mean)."""
        worker = self.workers[worker_idx]
        for p, center in zip(worker.dense_parameters(), self.center_state):
            mean = self.mix * p.value + (1.0 - self.mix) * center
            p.value[...] = mean
            center[...] = mean

    def round(self, batches: list[Batch]) -> float:
        if len(batches) != self.num_workers:
            raise ValueError(f"need {self.num_workers} batches, got {len(batches)}")
        with self.tracer.span(
            "shadow_sync_round",
            "iteration",
            round=self.rounds,
            workers=self.num_workers,
            synced_worker=self.rounds % self.num_workers,
        ):
            losses = []
            for i, (worker, opt, batch) in enumerate(
                zip(self.workers, self.optimizers, batches)
            ):
                with self.tracer.span("worker_step", "compute", worker=i, tid=i + 1):
                    opt.zero_grad()
                    logits = worker.forward(batch)
                    losses.append(self.loss.forward(logits, batch.labels))
                    worker.backward(self.loss.backward())
                    opt.step()
                    self.sparse_optimizer.step()
                self.examples_seen += batch.size
            # One background sync per round, round-robin over workers.
            with self.tracer.span("background_sync", "comm", mix=self.mix):
                self._background_sync(self.rounds % self.num_workers)
            self.rounds += 1
        return float(np.mean(losses))

    def train(self, batch_stream: Iterator[Batch], max_examples: int) -> list[float]:
        if max_examples < 1:
            raise ValueError("max_examples must be >= 1")
        history = []
        while self.examples_seen < max_examples:
            batches = [next(batch_stream) for _ in range(self.num_workers)]
            history.append(self.round(batches))
        return history

    def center_dlrm(self) -> DLRM:
        self.center_model.set_dense_state(self.center_state)
        return self.center_model
