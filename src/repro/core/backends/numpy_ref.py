"""The ``"numpy"`` reference backend.

Every op is the historical naive implementation — one temporary per
operation, no workspace, no fusion.  This is the ground truth the
conformance suite (``tests/conformance/``) validates every other
backend against, and the opt-out path selected by
``ModelConfig(backend="numpy")``.
"""

from __future__ import annotations

import numpy as np

from ..dense_kernels import stable_sigmoid
from .base import Backend

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Naive single-threaded numpy reference (bit-exact ground truth)."""

    name = "numpy"
    bit_identical = True  # it *is* the reference
    uses_workspace = False

    # -- linear --------------------------------------------------------------

    def linear_forward(self, x, weight, bias, ws, key):
        return x @ weight.T + bias

    def linear_backward(self, grad_out, x, weight, weight_grad, bias_grad, ws, key,
                        *, dx=True):
        weight_grad += grad_out.T @ x
        bias_grad += grad_out.sum(axis=0)
        return grad_out @ weight if dx else None

    # -- relu ----------------------------------------------------------------

    def relu_forward(self, x, ws, key, *, training=True):
        if not training:
            return np.maximum(x, 0.0), None
        mask = x > 0
        return np.where(mask, x, 0.0), mask

    def relu_backward(self, grad_out, ctx, ws, key):
        return np.where(ctx, grad_out, 0.0)

    # -- bce loss ------------------------------------------------------------

    def bce_forward(self, logits, labels, ws):
        # stable BCE: max(x,0) - x*y + log1p(exp(-|x|))
        per_example = (
            np.maximum(logits, 0.0)
            - logits * labels
            + np.log1p(np.exp(-np.abs(logits)))
        )
        return float(per_example.mean()), None

    def bce_backward(self, logits, labels, ctx, ws):
        return (stable_sigmoid(logits) - labels) / len(logits)

    # -- feature interaction -------------------------------------------------

    def dot_forward(self, dense, embs, tril, out_map, ws, key, *, training=True, lanes=None):
        stack = np.stack([dense] + list(embs), axis=1)  # (B, n+1, d)
        # A copied transpose: numpy hands an array times its own transposed
        # view to BLAS syrk, whose bits differ from the GEMM's on some shapes.
        gram = stack @ np.ascontiguousarray(stack.transpose(0, 2, 1))
        pairs = gram[:, tril[0], tril[1]]
        # The gather is F-ordered, and at dim 1 so is the concatenation;
        # one C order at every dim gives the top stack's one-wide products
        # (gemv, whose summation order follows the layout) one operand
        # layout in every backend.
        out = np.ascontiguousarray(np.concatenate([dense, pairs], axis=1))
        return out, stack

    def dot_backward(self, stack, grad_out, dim, tril, pair_map, ws, key, *, lanes=None):
        batch, n_vec, _ = stack.shape
        num_sparse = n_vec - 1
        grad_dense_direct = grad_out[:, :dim]
        grad_pairs = grad_out[:, dim:]
        # dense zeros + scatter + symmetrize + batched GEMM
        gram_grad = np.zeros((batch, n_vec, n_vec), dtype=stack.dtype)
        gram_grad[:, tril[0], tril[1]] = grad_pairs
        gram_grad = gram_grad + gram_grad.transpose(0, 2, 1)
        grad_stack = gram_grad @ stack
        grad_dense = grad_stack[:, 0, :] + grad_dense_direct
        grad_embs = [grad_stack[:, i + 1, :] for i in range(num_sparse)]
        return grad_dense, grad_embs

    def concat_forward(self, dense, embs, dim, ws, key):
        return np.concatenate([dense] + list(embs), axis=1)

    def concat_backward(self, grad_out, dense_width, num_sparse, dim, ws, key):
        w = dense_width
        grad_embs = [
            grad_out[:, w + i * dim : w + (i + 1) * dim] for i in range(num_sparse)
        ]
        return grad_out[:, :w], grad_embs

    # -- optimizer steps -----------------------------------------------------

    def adagrad_dense_step(self, value, grad, state, lr, eps, ws):
        state += grad * grad
        value -= lr * grad / (np.sqrt(state) + eps)

    def adagrad_sparse_step(self, weight, state, rows, values, lr, eps, ws):
        # the historical three-pass update: gather state, write it back,
        # then a second gather/scatter round trip through weight[rows] -= ...
        state_rows = state[rows]
        state_rows += values * values
        state[rows] = state_rows
        weight[rows] -= lr * values / (np.sqrt(state_rows) + eps)

    def sgd_dense_step(self, value, grad, lr, ws, *, weight_decay=0.0,
                       momentum=0.0, velocity=None):
        if weight_decay:
            grad = grad + weight_decay * value
        if velocity is not None:
            velocity *= momentum
            velocity += grad
            value -= lr * velocity
        else:
            value -= lr * grad

    def sgd_sparse_step(self, weight, rows, values, lr, ws):
        weight[rows] -= lr * values
