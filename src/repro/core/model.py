"""The DLRM-style recommendation model (paper Figure 3).

``DLRM`` assembles the four architecture blocks the paper characterizes:

1. bottom MLP over the concatenated dense features,
2. embedding-table lookups for each sparse feature,
3. feature interaction (concat or pairwise dot),
4. top MLP producing the click logit.

Forward and backward are explicit; the model exposes its dense
:class:`~repro.core.mlp.Parameter` list and its embedding tables so
optimizers and distributed-sync algorithms can treat the two halves
differently (data-parallel dense, model-parallel sparse) — the same split
that drives the systems design in the paper.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

from .backends import Backend, get_backend
from .config import InteractionType, ModelConfig, PoolingType
from .dense_kernels import Workspace, dot_block_rows
from .embedding import EmbeddingBagCollection, RaggedIndices, TablePlan
from .interaction import make_interaction
from .lanes import LANES, blas_threads, dot_floor, lane_count, stack_floor
from .mlp import MLP, Linear, Parameter

__all__ = ["Batch", "DLRM"]


class Batch:
    """One mini-batch of training data.

    Attributes:
        dense: ``(batch, num_dense)`` float matrix of dense features.
        sparse: mapping from sparse-feature name to :class:`RaggedIndices`.
        labels: ``(batch,)`` array of {0, 1} click labels.
    """

    def __init__(
        self,
        dense: np.ndarray,
        sparse: dict[str, RaggedIndices],
        labels: np.ndarray,
    ) -> None:
        self.dense = np.asarray(dense, dtype=np.float64)
        self.sparse = sparse
        self.labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        if self.dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {self.dense.shape}")
        if len(self.labels) != self.dense.shape[0]:
            raise ValueError(
                f"label count {len(self.labels)} != batch size {self.dense.shape[0]}"
            )
        for name, ragged in sparse.items():
            if ragged.batch_size != self.size:
                raise ValueError(
                    f"sparse feature {name!r} batch {ragged.batch_size} != {self.size}"
                )

    @property
    def size(self) -> int:
        return self.dense.shape[0]

    def total_lookups(self) -> int:
        """Total embedding lookups this batch triggers (cost driver, §III-A.2)."""
        return sum(r.total_lookups for r in self.sparse.values())


class DLRM:
    """Deep learning recommendation model with explicit backprop.

    The forward pass returns raw logits of shape ``(batch,)``; combine with
    :class:`repro.core.loss.BCEWithLogitsLoss` for training.
    """

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | int | None = None,
        pooling: PoolingType = PoolingType.SUM,
        backend: Backend | str | None = None,
        tiering=None,
        storage: dict[str, np.ndarray] | None = None,
    ) -> None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.config = config
        #: Compute precision for weights/activations (``config.compute_dtype``).
        self.dtype = config.np_dtype
        # The bottom stack's input is the batch's dense features: no layer
        # reads a gradient w.r.t. them, so layer 0 computes none.
        self.bottom_mlp = MLP(
            config.num_dense, config.bottom_mlp, rng, name="bottom", dtype=self.dtype,
            input_grad=False,
        )
        #: With a :class:`repro.tiering.store.TieredStoreConfig`, embedding
        #: tables become two-tier stores — numerically identical, but every
        #: row access is priced by tier placement (see docs/tiering.md).
        table_factory = None
        if tiering is not None:
            # Lazy import: repro.tiering depends on repro.core, not vice versa.
            from ..tiering.store import TieredEmbeddingTable

            def table_factory(spec, table_rng, pooling, dtype):
                return TieredEmbeddingTable(
                    spec, table_rng, pooling=pooling, dtype=dtype, tiering=tiering
                )

        # ``storage`` (table name -> array) is where each table's weights are
        # drawn: the hybrid trainer's shared segments.
        self.embeddings = EmbeddingBagCollection(
            config.tables, rng, pooling=pooling, dtype=self.dtype,
            table_factory=table_factory, storage=storage,
        )
        self.interaction = make_interaction(
            config.interaction, config.num_sparse, config.embedding_dim
        )
        interaction_width = self.interaction.out_features(config.bottom_mlp.out_features)
        self.top_mlp = MLP(
            interaction_width, config.top_mlp, rng, name="top", dtype=self.dtype
        )
        self.scorer = Linear(
            config.top_mlp.out_features, 1, rng, name="scorer", dtype=self.dtype
        )
        self._feature_order = [t.name for t in config.tables]
        #: The compute backend of the dense path (see
        #: :mod:`repro.core.backends`): ``config.backend`` unless
        #: overridden by the ``backend`` argument (a registered name or a
        #: :class:`Backend` instance).  Looked up once, here, and bound —
        #: with the arena — into every layer below; ``"fused"`` is
        #: bit-identical to the ``"numpy"`` reference.
        self.backend: Backend = get_backend(
            backend if backend is not None else config.backend
        )
        #: Buffer arena of the workspace-backed backends; ``None`` under the
        #: naive ``"numpy"`` reference.
        self.workspace: Workspace | None = (
            Workspace() if self.backend.uses_workspace else None
        )
        self.bottom_mlp.set_backend(self.backend, self.workspace)
        self.embeddings.set_backend(self.backend, self.workspace)
        self.top_mlp.set_backend(self.backend, self.workspace)
        self.scorer.set_backend(self.backend, self.workspace, key="scorer")
        self.interaction.set_backend(self.backend, self.workspace, key="interaction")
        #: The larger stack's GEMM weights (sum of in x out over its
        #: layers): a pass over ``rows`` is ``2 x rows x`` this many FLOPs.
        self._stack_weights = max(
            sum(layer.weight.value.size for layer in stack.layers if isinstance(layer, Linear))
            for stack in (self.bottom_mlp, self.top_mlp)
        )

    @contextmanager
    def bound_lanes(self, *holders):
        """Bind the process's lanes (:data:`~repro.core.lanes.LANES`) —
        :func:`~repro.core.lanes.lane_count` of them — to the
        embedding collection, the interaction, any extra ``holders`` (a
        trainer's optimizer) and, while the BLAS runs a GEMM on one thread
        (:func:`~repro.core.lanes.blas_threads`), both MLP stacks, for the
        duration of the block.  Outside it (a layer driven on its own)
        every one runs on the caller.  At one lane, or while another
        thread has the lanes bound, nothing is bound; a bound holder whose
        work stays under its floor runs its one-lane code."""
        width = lane_count()
        if width < 2 or not LANES.claim.acquire(blocking=False):
            yield
            return
        holders = [self.embeddings, self.interaction, *holders]
        try:
            LANES.width = width
            if blas_threads() == 1:  # a threaded BLAS already spreads each GEMM
                holders += [self.bottom_mlp, self.top_mlp]
            for holder in holders:
                holder.lanes = LANES
            yield
        finally:
            for holder in holders:
                holder.lanes = None
            LANES.claim.release()

    def _lane_work(self, batch: Batch) -> bool:
        """Whether an inference pass over ``batch`` has anything that may
        reach its floor (:mod:`repro.core.lanes`) at two lanes or more: a
        stack's FLOPs, the dot interaction's whole blocks, a table's
        lookup bytes.  Implied by each holder's own test, and cheaper than
        binding the lanes for every holder to find nothing to move."""
        rows = batch.size  # a wider width than 2 only raises each floor
        if stack_floor(rows, self._stack_weights, 2):
            return True
        if self.config.interaction is InteractionType.DOT:
            block = dot_block_rows(self.config.num_sparse + 1, self.dtype)
            if dot_floor(rows, block, 2):
                return True
        return self.embeddings.gathers_on_lanes(batch.sparse)

    # -- forward / backward -------------------------------------------------

    def forward(
        self,
        batch: Batch,
        *,
        training: bool = True,
        plans: dict[str, TablePlan] | None = None,
    ) -> np.ndarray:
        """Compute click logits for a batch; returns shape ``(batch,)``.

        ``training=False`` is the inference fast path: no activations are
        cached anywhere in the stack (MLP inputs, ReLU masks, interaction
        stacks, embedding forward contexts), so inference-only forwards
        allocate less, run faster, and leave no state to discard —
        :meth:`predict_proba` uses it.  ``backward`` after an
        inference-only forward raises.

        ``plans`` (table name -> :class:`TablePlan`, from
        ``self.embeddings.plan_batch(batch.sparse)``) are the batch's lookup
        plans when the caller built them already (every training step);
        without them the collection plans inline, by the same code.
        """
        if batch.dense.shape[1] != self.config.num_dense:
            raise ValueError(
                f"batch has {batch.dense.shape[1]} dense features, "
                f"model expects {self.config.num_dense}"
            )
        dense_out = self.bottom_mlp.forward(
            batch.dense.astype(self.dtype, copy=False), training=training
        )
        pooled = self.embeddings.forward(batch.sparse, training=training, plans=plans)
        # The collection's features are the config's tables, in order, so
        # its feature-major array goes to the interaction as it is.
        interacted = self.interaction.forward(dense_out, pooled.array, training=training)
        top_out = self.top_mlp.forward(interacted, training=training)
        logits = self.scorer.forward(top_out, training=training)
        out = logits.reshape(-1)
        if self.workspace is not None and self.workspace.owns(out):
            # The caller owns the returned logits (they must survive the
            # next forward); peel them off the arena.  (batch,) floats —
            # the only steady-state allocation of the fused forward.
            return out.copy()
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate ``dLoss/dlogits`` of shape ``(batch, 1)`` or ``(batch,)``."""
        grad = np.asarray(grad_logits, dtype=self.dtype).reshape(-1, 1)
        grad = self.scorer.backward(grad)
        grad = self.top_mlp.backward(grad)
        grad_dense, grad_embs = self.interaction.backward(grad)
        self.embeddings.backward(dict(zip(self._feature_order, grad_embs)))
        self.bottom_mlp.backward(grad_dense)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities via the inference fast path, on the lanes a
        train step gets (:meth:`bound_lanes`) — unless nothing in the pass
        can reach its floor, and then on the caller without binding them.

        Runs ``forward(training=False)``: activations are never cached in
        the first place (rather than cached and then discarded via
        :meth:`_discard_forward_state`, the historical behaviour), which
        skips the per-layer stash writes and the embedding forward-context
        pushes entirely — see ``docs/perf_notes.md`` for the measured win.
        """
        from .loss import sigmoid

        with self.bound_lanes() if self._lane_work(batch) else nullcontext():
            logits = self.forward(batch, training=False)
        return sigmoid(logits)

    def _discard_forward_state(self) -> None:
        """Drop cached activations after a *training-mode* forward whose
        backward will never run (e.g. numeric gradient checks that probe
        ``forward`` directly).

        Embedding tables stack forward contexts (to support shared tables),
        so such forwards must clear them or the stack grows.  Inference
        callers should prefer ``forward(training=False)``, which never
        saves state in the first place.
        """
        for table in self.embeddings.tables.values():
            table._saved.clear()
        self.interaction._saved = None

    # -- parameter access ----------------------------------------------------

    def dense_parameters(self) -> list[Parameter]:
        """MLP + scorer parameters — the data-parallel ("dense PS") half."""
        return (
            self.bottom_mlp.parameters()
            + self.top_mlp.parameters()
            + self.scorer.parameters()
        )

    def embedding_tables(self):
        """The model-parallel ("sparse PS") half, in config order."""
        return [self.embeddings.tables[name] for name in self._feature_order]

    def zero_grad(self) -> None:
        for p in self.dense_parameters():
            p.zero_grad()
        self.embeddings.zero_grad()

    def num_parameters(self) -> int:
        dense = sum(p.size for p in self.dense_parameters())
        sparse = sum(t.weight.size for t in self.embeddings.tables.values())
        return dense + sparse

    # -- state serialization (for EASGD / checkpoint tests) -------------------

    def get_dense_state(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.dense_parameters()]

    def set_dense_state(self, state: list[np.ndarray]) -> None:
        params = self.dense_parameters()
        if len(state) != len(params):
            raise ValueError(f"state has {len(state)} tensors, expected {len(params)}")
        for p, s in zip(params, state):
            if p.value.shape != s.shape:
                raise ValueError(f"shape mismatch for {p.name}: {p.value.shape} vs {s.shape}")
            p.value[...] = s
