"""The ``"numpy"`` reference backend.

Every op is the historical naive implementation — one temporary per
operation, no workspace, no fusion.  This is the ground truth the
conformance suite (``tests/conformance/``) validates every other
backend against, and the opt-out path selected by
``ModelConfig(backend="numpy")``.
"""

from __future__ import annotations

import numpy as np

from ..dense_kernels import (
    naive_adagrad_dense_step,
    naive_adagrad_sparse_step,
    naive_bce_backward,
    naive_bce_forward,
    naive_dot_backward,
    naive_dot_forward,
    naive_linear_backward,
    naive_linear_forward,
    naive_relu_backward,
    naive_relu_forward,
    naive_sgd_dense_step,
)
from ..kernels import naive_segment_sum
from .base import Backend

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Naive single-threaded numpy reference (bit-exact ground truth)."""

    name = "numpy"
    bit_identical = True  # it *is* the reference
    uses_workspace = False

    # -- linear --------------------------------------------------------------

    def linear_forward(self, x, weight, bias, ws, key):
        return naive_linear_forward(x, weight, bias)

    def linear_backward(self, grad_out, x, weight, weight_grad, bias_grad, ws, key):
        dw, db, dx = naive_linear_backward(grad_out, x, weight)
        weight_grad += dw
        bias_grad += db
        return dx

    # -- relu ----------------------------------------------------------------

    def relu_forward(self, x, ws, key, *, training=True):
        if not training:
            return np.maximum(x, 0.0), None
        y, mask = naive_relu_forward(x)
        return y, mask

    def relu_backward(self, grad_out, ctx, ws, key):
        return naive_relu_backward(grad_out, ctx)

    # -- bce loss ------------------------------------------------------------

    def bce_forward(self, logits, labels, ws):
        return naive_bce_forward(logits, labels), None

    def bce_backward(self, logits, labels, ctx, ws):
        return naive_bce_backward(logits, labels)

    # -- feature interaction -------------------------------------------------

    def dot_forward(self, dense, embs, tril, flat_tril, ws, key, *, training=True):
        stack = np.stack([dense] + list(embs), axis=1)  # (B, n+1, d)
        return naive_dot_forward(stack, tril, dense), stack

    def dot_backward(self, stack, grad_out, dim, tril, pair_map, ws, key):
        num_sparse = stack.shape[1] - 1
        grad_dense_direct = grad_out[:, :dim]
        grad_pairs = grad_out[:, dim:]
        grad_stack = naive_dot_backward(stack, tril, grad_pairs)
        grad_dense = grad_stack[:, 0, :] + grad_dense_direct
        grad_embs = [grad_stack[:, i + 1, :] for i in range(num_sparse)]
        return grad_dense, grad_embs

    def concat_forward(self, dense, embs, dim, ws, key):
        return np.concatenate([dense] + list(embs), axis=1)

    # -- segment pooling -----------------------------------------------------

    def segment_pool(self, weight, values, offsets):
        values = np.asarray(values, dtype=np.int64)
        return naive_segment_sum(np.asarray(weight)[values], offsets)

    def segment_pool_backward(self, values, lengths, grad_out):
        per_lookup = np.repeat(grad_out, lengths, axis=0)
        rows, inverse = np.unique(
            np.asarray(values, dtype=np.int64), return_inverse=True
        )
        summed = np.zeros((len(rows),) + per_lookup.shape[1:], dtype=per_lookup.dtype)
        if per_lookup.shape[0]:
            np.add.at(summed, inverse, per_lookup)
        return rows, summed

    # -- optimizer steps -----------------------------------------------------

    def adagrad_dense_step(self, value, grad, state, lr, eps, ws):
        naive_adagrad_dense_step(value, grad, state, lr, eps)

    def adagrad_sparse_step(self, weight, state, rows, values, lr, eps, ws):
        naive_adagrad_sparse_step(weight, state, rows, values, lr, eps)

    def sgd_dense_step(self, value, grad, lr, ws, *, weight_decay=0.0,
                       momentum=0.0, velocity=None):
        naive_sgd_dense_step(
            value, grad, lr,
            weight_decay=weight_decay, momentum=momentum, velocity=velocity,
        )

    def sgd_sparse_step(self, weight, rows, values, lr, ws):
        weight[rows] -= lr * values
