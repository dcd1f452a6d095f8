"""Feature-interaction combiners (paper §III-A.3).

Two combiners are implemented, matching the paper:

* **Concatenation** — pooled embeddings of each sparse feature are
  concatenated to the bottom-MLP output.
* **Pairwise dot product** — the bottom-MLP output is treated as one more
  d-dimensional embedding; all pairwise dot products between the ``n+1``
  vectors are computed, and the resulting triangle is concatenated with the
  original dense output.  This captures dense-sparse and sparse-sparse
  interactions.

The compute routes through the backend seam (:mod:`repro.core.backends`):
the ``"numpy"`` reference materializes fresh temporaries, the ``"fused"``
path runs the allocation-free kernels of :mod:`repro.core.dense_kernels`
through the attached workspace arena (bit-identical).
"""

from __future__ import annotations

import numpy as np

from . import dense_kernels
from .backends import Backend, get_backend, reference_backend
from .dense_kernels import Workspace

__all__ = ["ConcatInteraction", "DotInteraction", "make_interaction"]


class ConcatInteraction:
    """Concatenate ``[dense, emb_1, ..., emb_n]`` along the feature axis."""

    def __init__(self, num_sparse: int, dim: int) -> None:
        self.num_sparse = num_sparse
        self.dim = dim
        self._dense_width: int | None = None
        self.backend: Backend = get_backend("fused")
        self.workspace: Workspace | None = None
        self._ws_key = "concat"

    def set_backend(
        self,
        backend: Backend | str,
        workspace: Workspace | None = None,
        key: str | None = None,
    ) -> None:
        self.backend = backend if isinstance(backend, Backend) else get_backend(backend)
        self.workspace = workspace
        if key is not None:
            self._ws_key = key

    def out_features(self, dense_width: int) -> int:
        return dense_width + self.num_sparse * self.dim

    def forward(
        self, dense: np.ndarray, embs: list[np.ndarray], *, training: bool = True
    ) -> np.ndarray:
        if len(embs) != self.num_sparse:
            raise ValueError(f"expected {self.num_sparse} embeddings, got {len(embs)}")
        if training:
            self._dense_width = dense.shape[1]
        be = self.backend
        if be.uses_workspace and (
            self.workspace is None or any(e.dtype != dense.dtype for e in embs)
        ):
            be = reference_backend()
        return be.concat_forward(dense, embs, self.dim, self.workspace, self._ws_key)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._dense_width is None:
            raise RuntimeError("backward called before forward")
        w = self._dense_width
        self._dense_width = None
        grad_dense = grad_out[:, :w]
        grad_embs = [
            grad_out[:, w + i * self.dim : w + (i + 1) * self.dim]
            for i in range(self.num_sparse)
        ]
        return grad_dense, grad_embs


class DotInteraction:
    """Pairwise dot products among ``[dense, emb_1, ..., emb_n]``.

    The output is ``concat(dense, lower_triangle(T @ T^T))`` where ``T`` is
    the ``(batch, n+1, d)`` stack of feature vectors; the strictly-lower
    triangle has ``(n+1) * n / 2`` entries.
    """

    def __init__(self, num_sparse: int, dim: int) -> None:
        self.num_sparse = num_sparse
        self.dim = dim
        n_vec = num_sparse + 1
        self._tril = np.tril_indices(n_vec, k=-1)
        #: Flat offsets ``i * n + j`` of the strict lower triangle — the
        #: fused forward gathers them with ``np.take`` on the flattened
        #: gram matrix (no fancy-index temporary).
        self._flat_tril = (self._tril[0] * n_vec + self._tril[1]).astype(np.intp)
        #: Symmetrized gather map of the fused backward (see
        #: :func:`repro.core.dense_kernels.symmetric_pair_map`).
        self._pair_map = dense_kernels.symmetric_pair_map(n_vec, self._tril)
        self._stack: np.ndarray | None = None
        self.backend: Backend = get_backend("fused")
        self.workspace: Workspace | None = None
        self._ws_key = "dot"

    def set_backend(
        self,
        backend: Backend | str,
        workspace: Workspace | None = None,
        key: str | None = None,
    ) -> None:
        self.backend = backend if isinstance(backend, Backend) else get_backend(backend)
        self.workspace = workspace
        if key is not None:
            self._ws_key = key

    @property
    def num_pairs(self) -> int:
        n_vec = self.num_sparse + 1
        return n_vec * (n_vec - 1) // 2

    def out_features(self, dense_width: int) -> int:
        if dense_width != self.dim:
            raise ValueError(
                f"dot interaction needs dense width == embedding dim "
                f"({dense_width} != {self.dim})"
            )
        return self.dim + self.num_pairs

    def forward(
        self, dense: np.ndarray, embs: list[np.ndarray], *, training: bool = True
    ) -> np.ndarray:
        if len(embs) != self.num_sparse:
            raise ValueError(f"expected {self.num_sparse} embeddings, got {len(embs)}")
        if dense.shape[1] != self.dim:
            raise ValueError(
                f"dense width {dense.shape[1]} != embedding dim {self.dim}"
            )
        be = self.backend
        if be.uses_workspace and (
            self.workspace is None or any(e.dtype != dense.dtype for e in embs)
        ):
            be = reference_backend()
        out, stack = be.dot_forward(
            dense, embs, self._tril, self._flat_tril,
            self.workspace, self._ws_key, training=training,
        )
        if training:
            self._stack = stack
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._stack is None:
            raise RuntimeError("backward called before forward")
        stack = self._stack
        self._stack = None
        be = self.backend
        if be.uses_workspace and (
            self.workspace is None or grad_out.dtype != stack.dtype
        ):
            be = reference_backend()
        return be.dot_backward(
            stack, grad_out, self.dim, self._tril, self._pair_map,
            self.workspace, self._ws_key,
        )


def make_interaction(kind, num_sparse: int, dim: int):
    """Factory mapping :class:`repro.core.config.InteractionType` to a combiner."""
    from .config import InteractionType

    if kind is InteractionType.CONCAT:
        return ConcatInteraction(num_sparse, dim)
    if kind is InteractionType.DOT:
        return DotInteraction(num_sparse, dim)
    raise ValueError(f"unknown interaction type: {kind!r}")
