"""Optimizers with sparse-aware updates.

The dense half of the model (MLP stacks) is updated with ordinary dense
steps; embedding tables receive *row-sparse* updates touching only the rows
looked up in the batch — production tables have millions of rows (Figure 6),
so dense embedding updates are never materialized.

SGD and Adagrad are provided (Adagrad is the de-facto standard for sparse
embedding training); EASGD's elastic update lives in
:mod:`repro.distributed.sync` since it couples multiple workers, whose
Adagrads share each table's accumulator (``Adagrad(..., accumulators=)``).
"""

from __future__ import annotations

import numpy as np

from .backends import Backend, get_backend
from .dense_kernels import Workspace
from .embedding import EmbeddingTable, SparseGrad
from .lanes import Lanes, on_rows, spread
from .mlp import Parameter

__all__ = ["SGD", "Adagrad"]


def _full_like(like: np.ndarray, value: float) -> np.ndarray:
    """``np.full_like(like, value)`` for a table-sized array, its row
    ranges filled on the lanes (:func:`~repro.core.lanes.on_rows`)."""
    out = np.empty_like(like)
    on_rows(lambda lo, hi: out[lo:hi].fill(value), len(out), out.size)
    return out


class _OptimizerBase:
    """Shared bookkeeping: the optimizer owns dense params and sparse tables.

    Updates route through the compute-backend seam
    (:mod:`repro.core.backends`): ``backend`` is a registered name or an
    instance (e.g. the model's own).  The default ``"fused"`` runs the
    allocation-free update kernels of :mod:`repro.core.dense_kernels`
    through a private buffer arena, bit-identical to the ``"numpy"``
    reference (kept for debugging).

    Both loops of :meth:`step` — whole parameters, then whole tables — run
    on :attr:`lanes` when a trainer binds them (:mod:`repro.core.lanes`),
    each lane drawing its block buffers from its own arena (lane 0's is
    :attr:`workspace`).
    """

    #: Row-sized arrays a sparse update reads and writes per touched row
    #: (the weight, plus any per-row state): its traffic for the lanes.
    _row_arrays = 1

    def __init__(
        self,
        dense_params: list[Parameter],
        tables: list[EmbeddingTable] | None = None,
        lr: float = 0.01,
        backend: Backend | str = "fused",
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.dense_params = list(dense_params)
        self.tables = list(tables or [])
        self.lr = lr
        self.backend: Backend = get_backend(backend)
        self.workspace: Workspace | None = (
            Workspace() if self.backend.uses_workspace else None
        )
        self._lane_workspaces = [self.workspace]
        self._lanes: Lanes | None = None

    def zero_grad(self) -> None:
        for p in self.dense_params:
            p.zero_grad()
        for t in self.tables:
            t.zero_grad()

    @property
    def lanes(self) -> Lanes | None:
        """Lanes :meth:`step` is spread over; ``None``: one, the caller.
        Binding them gives every lane an arena of its own."""
        return self._lanes

    @lanes.setter
    def lanes(self, lanes: Lanes | None) -> None:
        self._lanes = lanes
        while lanes is not None and len(self._lane_workspaces) < lanes.width:
            self._lane_workspaces.append(None if self.workspace is None else Workspace())

    def step(self) -> None:
        self.dense_step()
        spread(
            self.lanes, self._table_step, list(enumerate(self.tables)), self._traffic
        )

    def _table_step(self, item: tuple[int, EmbeddingTable], lane: int) -> None:
        i, t = item
        grad = t.pop_grad()
        if grad is not None:
            self._sparse_step(i, t, grad, self._lane_workspaces[lane])

    def _traffic(self, item: tuple[int, EmbeddingTable]) -> int:
        t = item[1]
        rows = sum(len(g.rows) for g in t.sparse_grads)
        return rows * self._row_arrays * t.bytes_per_row()

    def dense_step(self) -> None:
        """Apply the dense half of :meth:`step` only, one whole parameter
        per item on :attr:`lanes` (parameters are independent arrays),
        costed by its bytes.  Not by all the bytes its update moves, as a
        table's sparse update is: a dense update streams its arrays in
        cache-sized blocks, far faster per byte than rows are gathered, and
        on a parameter's own bytes :data:`~repro.core.lanes.LANE_MIN_BYTES`
        falls where the dense step's sweep crosses (docs/perf_notes.md
        §"Two lanes for the dense half").

        :meth:`step` is this plus the sparse loop, and every trainer under
        ``src/`` calls :meth:`step`; the only outside caller of the two
        halves is ``perfbench/layers.py``, which times them apart.
        """
        spread(
            self.lanes, self._param_step, list(enumerate(self.dense_params)),
            lambda item: item[1].value.nbytes,
        )

    def _param_step(self, item: tuple[int, Parameter], lane: int) -> None:
        self._dense_step(*item, self._lane_workspaces[lane])

    def sparse_update(self, idx: int, grad: SparseGrad) -> None:
        """Apply one explicit sparse update to table ``idx``.

        Unlike :meth:`step`, the gradient is supplied by the caller rather
        than popped off the table (see :meth:`dense_step` for who calls it).
        """
        self._sparse_step(idx, self.tables[idx], grad, self.workspace)

    def slots(self) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
        """The persistent state a checkpoint must carry besides the
        parameters: one array per dense parameter (in order, or none) and
        one per table, by table name.  Live arrays, not copies."""
        return [], {}

    # subclass hooks ---------------------------------------------------------

    def _dense_step(self, idx: int, p: Parameter, ws: Workspace | None) -> None:
        raise NotImplementedError

    def _sparse_step(
        self, idx: int, table: EmbeddingTable, grad: SparseGrad, ws: Workspace | None
    ) -> None:
        raise NotImplementedError


class SGD(_OptimizerBase):
    """Plain stochastic gradient descent, optionally with momentum on the
    dense parameters (momentum is not applied to embedding rows: momentum
    state for multi-million-row tables would double their footprint, and
    sparse momentum is ill-defined for rarely-touched rows)."""

    def __init__(
        self,
        dense_params: list[Parameter],
        tables: list[EmbeddingTable] | None = None,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        backend: Backend | str = "fused",
    ) -> None:
        super().__init__(dense_params, tables, lr, backend=backend)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = (
            [np.zeros_like(p.value) for p in self.dense_params] if momentum else None
        )

    def slots(self) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
        return self._velocity or [], {}

    def _dense_step(self, idx: int, p: Parameter, ws: Workspace | None) -> None:
        velocity = self._velocity[idx] if self._velocity is not None else None
        self.backend.sgd_dense_step(
            p.value,
            p.grad,
            self.lr,
            ws,
            weight_decay=self.weight_decay,
            momentum=self.momentum,
            velocity=velocity,
        )

    def _sparse_step(
        self, idx: int, table: EmbeddingTable, grad: SparseGrad, ws: Workspace | None
    ) -> None:
        self.backend.sgd_sparse_step(table.weight, grad.rows, grad.values, self.lr, ws)


class Adagrad(_OptimizerBase):
    """Adagrad with per-row accumulator state for embedding tables.

    The accumulator doubles the memory footprint of each table — exactly the
    optimizer-state overhead that makes large models spill out of GPU HBM in
    the paper's placement analysis (§IV-B.1).
    """

    _row_arrays = 2  # weight and accumulator

    def __init__(
        self,
        dense_params: list[Parameter],
        tables: list[EmbeddingTable] | None = None,
        lr: float = 0.01,
        eps: float = 1e-10,
        initial_accumulator: float = 0.0,
        backend: Backend | str = "fused",
        accumulators: list[np.ndarray] | None = None,
    ) -> None:
        super().__init__(dense_params, tables, lr, backend=backend)
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if initial_accumulator < 0:
            raise ValueError("initial_accumulator must be >= 0")
        self.eps = eps
        self._dense_state = [
            np.full_like(p.value, initial_accumulator) for p in self.dense_params
        ]
        # ``accumulators``: externally-owned table state, one array per table
        # taken as it is, values not copied (the hybrid trainer's shared
        # segments; EASGD's workers all share the one accumulator per table,
        # as trainers on one sparse parameter server would).  Otherwise each
        # table's accumulator is filled with ``initial_accumulator``.
        if accumulators is None:
            accumulators = [_full_like(t.weight, initial_accumulator) for t in self.tables]
        if len(accumulators) != len(self.tables):
            raise ValueError(
                f"{len(accumulators)} accumulators for {len(self.tables)} tables"
            )
        self._table_state = []
        for t, state in zip(self.tables, accumulators):
            state = np.asarray(state)
            if state.shape != t.weight.shape:
                raise ValueError(f"accumulator shape {state.shape} != {t.weight.shape}")
            if state.dtype != t.weight.dtype:
                raise ValueError(f"accumulator dtype {state.dtype} != {t.weight.dtype}")
            self._table_state.append(state)

    def slots(self) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
        names = [t.spec.name for t in self.tables]
        return self._dense_state, dict(zip(names, self._table_state))

    def _dense_step(self, idx: int, p: Parameter, ws: Workspace | None) -> None:
        self.backend.adagrad_dense_step(
            p.value, p.grad, self._dense_state[idx], self.lr, self.eps, ws
        )

    def _sparse_step(
        self, idx: int, table: EmbeddingTable, grad: SparseGrad, ws: Workspace | None
    ) -> None:
        # ``SparseGrad.rows`` are coalesced (sorted unique), so the fused
        # single-gather/single-scatter update is exact; see the conformance
        # test pinning bit-identity against the historical three-pass form.
        self.backend.adagrad_sparse_step(
            table.weight,
            self._table_state[idx],
            grad.rows,
            grad.values,
            self.lr,
            self.eps,
            ws,
        )

    def state_bytes(self) -> int:
        """Optimizer-state footprint (used by the placement planner)."""
        dense = sum(s.nbytes for s in self._dense_state)
        sparse = sum(s.nbytes for s in self._table_state)
        return dense + sparse
