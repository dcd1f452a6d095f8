"""Losses for click-through-rate training.

Recommendation models at Facebook are binary classifiers trained with
cross-entropy; model quality is tracked as *normalized entropy* (paper §VI-C).
The loss here is binary cross-entropy computed directly from logits in a
numerically stable form.

Bound to the fused backend and its
:class:`~repro.core.dense_kernels.Workspace` (as :class:`Trainer` binds it),
:class:`BCEWithLogitsLoss` runs the fused sigmoid+BCE kernel: one
``exp(-|x|)`` pass serves both the loss value and the logit gradient (the
naive pair evaluates the sigmoid's exponential twice), and every temporary
lands in a reused arena buffer.  Bit-identical to the naive path — see
:mod:`repro.core.dense_kernels` for the argument.
"""

from __future__ import annotations

import numpy as np

from .backends import Backend, bind_backend, reference_backend
from .dense_kernels import Workspace, stable_sigmoid

__all__ = ["BCEWithLogitsLoss", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Delegates to the single shared implementation
    (:func:`repro.core.dense_kernels.stable_sigmoid`); float inputs keep
    their dtype (historically this copy silently upcast float32 logits to
    float64, diverging from :class:`repro.core.mlp.Sigmoid`).
    """
    return stable_sigmoid(x)


class BCEWithLogitsLoss:
    """Mean binary cross-entropy over a batch, from raw logits.

    Uses ``max(x, 0) - x * y + log(1 + exp(-|x|))`` which never overflows.
    ``backward`` returns the gradient with respect to the logits:
    ``(sigmoid(x) - y) / batch``.

    The loss computes in float64 regardless of the model's compute dtype
    (the historical contract: a float32 model still gets a float64 loss
    scalar and logit gradient, which :meth:`repro.core.model.DLRM.backward`
    casts back down).

    Stand-alone (``BCEWithLogitsLoss()``) it runs the reference backend;
    :class:`~repro.core.training.Trainer` binds the model's backend and
    arena.  Naming an arena backend without a ``workspace`` raises
    ``ValueError``.
    """

    def __init__(
        self,
        workspace: Workspace | None = None,
        backend: Backend | str | None = None,
    ) -> None:
        self._saved: tuple[np.ndarray, np.ndarray] | None = None
        # No backend named: the default one given an arena, else the reference.
        if backend is None and workspace is None:
            backend = reference_backend()
        self.backend, self.workspace = bind_backend(backend, workspace)
        self._ctx: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float64).reshape(-1)
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        if logits.shape != labels.shape:
            raise ValueError(f"shape mismatch: {logits.shape} vs {labels.shape}")
        if len(logits) == 0:
            raise ValueError("empty batch")
        if labels.min() < 0 or labels.max() > 1:
            raise ValueError("labels must lie in [0, 1]")
        self._saved = (logits, labels)
        loss, self._ctx = self.backend.bce_forward(logits, labels, self.workspace)
        return loss

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits, shape ``(batch, 1)``."""
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        logits, labels = self._saved
        self._saved = None
        ctx = self._ctx
        self._ctx = None
        grad = self.backend.bce_backward(logits, labels, ctx, self.workspace)
        return grad.reshape(-1, 1)
