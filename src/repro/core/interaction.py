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
through the bound workspace arena (bit-identical).
"""

from __future__ import annotations

import numpy as np

from . import dense_kernels
from .backends import Backend, bind_backend, reference_backend
from .dense_kernels import Workspace
from .lanes import Lanes

__all__ = ["ConcatInteraction", "DotInteraction", "make_interaction"]


class _Interaction:
    """What the two combiners share: the backend seam.  ``embs`` is the
    feature-major ``(num_sparse, batch, dim)`` array of pooled embeddings
    (what ``EmbeddingBagCollection.forward`` fills and ``DLRM`` hands over)
    or a sequence of ``(batch, dim)`` arrays; ``backward`` returns
    ``(grad_dense, grad_embs)``, ``grad_embs[i]`` feature ``i``'s gradient
    — under a workspace the contiguous slabs of one feature-major arena
    buffer that lives until the next backward."""

    _ws_key = ""

    def __init__(self, num_sparse: int, dim: int) -> None:
        self.num_sparse = num_sparse
        self.dim = dim
        #: Forward context of the pending backward; ``None`` when there is none.
        self._saved = None
        #: A stand-alone combiner runs the reference; a model binds its own.
        self.backend: Backend = reference_backend()
        self.workspace: Workspace | None = None
        #: Lanes the dot interaction's blocks may spread over
        #: (:mod:`repro.core.lanes`); ``None``: one, the caller.
        self.lanes: Lanes | None = None

    def set_backend(
        self,
        backend: Backend | str,
        workspace: Workspace | None = None,
        key: str | None = None,
    ) -> None:
        self.backend, self.workspace = bind_backend(backend, workspace)
        if key is not None:
            self._ws_key = key

    def _check(self, dense: np.ndarray, embs) -> None:
        """The embedding count, and under an arena backend one dtype: its
        kernels write into buffers of ``dense``'s dtype and would cast
        mismatched embeddings in silence (the reference promotes)."""
        if len(embs) != self.num_sparse:
            raise ValueError(f"expected {self.num_sparse} embeddings, got {len(embs)}")
        if self.workspace is None:
            return
        dtypes = {embs.dtype} if isinstance(embs, np.ndarray) else {e.dtype for e in embs}
        if dtypes != {dense.dtype}:
            raise TypeError(
                f"{self._ws_key}: embeddings are {sorted(map(str, dtypes))}, "
                f"dense is {dense.dtype}; cast at the model boundary"
            )


class ConcatInteraction(_Interaction):
    """Concatenate ``[dense, emb_1, ..., emb_n]`` along the feature axis."""

    _ws_key = "concat"

    def out_features(self, dense_width: int) -> int:
        return dense_width + self.num_sparse * self.dim

    def forward(self, dense: np.ndarray, embs, *, training: bool = True) -> np.ndarray:
        self._check(dense, embs)
        if training:
            self._saved = dense.shape[1]
        return self.backend.concat_forward(
            dense, embs, self.dim, self.workspace, self._ws_key
        )

    def backward(self, grad_out: np.ndarray):
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        dense_width = self._saved
        self._saved = None
        return self.backend.concat_backward(
            grad_out, dense_width, self.num_sparse, self.dim,
            self.workspace, self._ws_key,
        )


class DotInteraction(_Interaction):
    """Pairwise dot products among ``[dense, emb_1, ..., emb_n]``.

    The output is ``concat(dense, lower_triangle(T @ T^T))`` where ``T`` is
    the ``(batch, n+1, d)`` stack of feature vectors; the strictly-lower
    triangle has ``(n+1) * n / 2`` entries.

    Between a training forward and its backward it keeps what the forward's
    backend returned: the reference's ``(batch, n+1, d)`` stack, or — fused
    — only references to ``dense`` and the feature-major pooled array, which
    the blocked backward re-reads, so both must still hold the forward's
    values then (they do under the arena's contract: no forward of the
    bottom MLP or the embedding collection comes between the two).
    """

    _ws_key = "dot"

    def __init__(self, num_sparse: int, dim: int) -> None:
        super().__init__(num_sparse, dim)
        n_vec = num_sparse + 1
        self._tril = np.tril_indices(n_vec, k=-1)
        #: Gather maps of the fused kernels (see
        #: :func:`repro.core.dense_kernels.dot_out_map` /
        #: :func:`~repro.core.dense_kernels.symmetric_pair_map`).
        self._out_map = dense_kernels.dot_out_map(dim, n_vec, self._tril)
        self._pair_map = dense_kernels.symmetric_pair_map(n_vec, self._tril)

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

    def forward(self, dense: np.ndarray, embs, *, training: bool = True) -> np.ndarray:
        self._check(dense, embs)
        if dense.shape[1] != self.dim:
            raise ValueError(
                f"dense width {dense.shape[1]} != embedding dim {self.dim}"
            )
        out, ctx = self.backend.dot_forward(
            dense, embs, self._tril, self._out_map,
            self.workspace, self._ws_key, training=training, lanes=self.lanes,
        )
        if training:
            self._saved = ctx
        return out

    def backward(self, grad_out: np.ndarray):
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        ctx = self._saved
        self._saved = None
        return self.backend.dot_backward(
            ctx, grad_out, self.dim, self._tril, self._pair_map,
            self.workspace, self._ws_key, lanes=self.lanes,
        )


def make_interaction(kind, num_sparse: int, dim: int):
    """Factory mapping :class:`repro.core.config.InteractionType` to a combiner."""
    from .config import InteractionType

    if kind is InteractionType.CONCAT:
        return ConcatInteraction(num_sparse, dim)
    if kind is InteractionType.DOT:
        return DotInteraction(num_sparse, dim)
    raise ValueError(f"unknown interaction type: {kind!r}")
