"""The ``"fused"`` backend: allocation-free kernels through the arena.

Every op routes to :mod:`repro.core.dense_kernels` /
:mod:`repro.core.kernels`, acquiring its scratch and output buffers from
the caller's :class:`~repro.core.dense_kernels.Workspace` under the same
``(key, slot)`` scheme the layers historically used — so a steady-state
train step performs zero fresh large dense allocations.

Bit-identical to the ``"numpy"`` reference in both float64 and float32;
see the numerical contract in :mod:`repro.core.dense_kernels` for the
argument, and ``tests/conformance/`` for the enforcement.
"""

from __future__ import annotations

import numpy as np

from .. import dense_kernels as dk
from ..kernels import expand_coalesce, gather_pool
from .base import Backend

__all__ = ["FusedBackend"]


class FusedBackend(Backend):
    """Fused, workspace-backed kernels (bit-identical to the reference)."""

    name = "fused"
    bit_identical = True
    uses_workspace = True

    # -- linear --------------------------------------------------------------

    def linear_forward(self, x, weight, bias, ws, key):
        out = ws.get((key, "out"), (x.shape[0], weight.shape[0]), x.dtype)
        return dk.linear_forward(x, weight, bias, out)

    def linear_backward(self, grad_out, x, weight, weight_grad, bias_grad, ws, key):
        dtype = weight.dtype
        grad_in = ws.get((key, "gin"), (grad_out.shape[0], weight.shape[1]), dtype)
        wg = ws.get((key, "wg"), weight.shape, dtype)
        bg = ws.get((key, "bg"), bias_grad.shape, dtype)
        return dk.linear_backward(
            grad_out, x, weight, weight_grad, bias_grad, grad_in, wg, bg
        )

    # -- relu ----------------------------------------------------------------

    def relu_forward(self, x, ws, key, *, training=True):
        if ws.owns(x):
            out = x  # in-place: the pre-activation is dead after this
        else:
            out = ws.get((key, "y"), x.shape, x.dtype)
        dk.relu_forward(x, out)
        # activity is recovered from the *output* sign in the backward
        return out, (out if training else None)

    def relu_backward(self, grad_out, ctx, ws, key):
        y = ctx
        mask_buf = ws.get((key, "m"), y.shape, bool)
        if ws.owns(grad_out) and grad_out.dtype == y.dtype:
            out = grad_out  # in-place on the incoming gradient buffer
        else:
            out = ws.get((key, "g"), grad_out.shape, grad_out.dtype)
        return dk.relu_backward(grad_out, y, out, mask_buf)

    # -- bce loss ------------------------------------------------------------

    def bce_forward(self, logits, labels, ws):
        shape = logits.shape
        sig = ws.get(("bce", "sig"), shape, np.float64)
        loss = dk.bce_forward(
            logits,
            labels,
            ws.get(("bce", "e"), shape, np.float64),
            ws.get(("bce", "per"), shape, np.float64),
            ws.get(("bce", "tmp"), shape, np.float64),
            sig,
            ws.get(("bce", "denom"), shape, np.float64),
            ws.get(("bce", "pos"), shape, bool),
        )
        return loss, sig

    def bce_backward(self, logits, labels, ctx, ws):
        return dk.bce_backward(
            ctx, labels, ws.get(("bce", "grad"), logits.shape, np.float64)
        )

    # -- feature interaction -------------------------------------------------

    def dot_forward(self, dense, embs, tril, flat_tril, ws, key, *, training=True):
        batch, dim = dense.shape
        n_vec = len(embs) + 1
        num_pairs = len(flat_tril)
        dt = dense.dtype
        stack = ws.get((key, "stack"), (batch, n_vec, dim), dt)
        stack[:, 0, :] = dense
        for i, emb in enumerate(embs):
            stack[:, i + 1, :] = emb
        out = dk.dot_forward(
            stack,
            flat_tril,
            dense,
            ws.get((key, "gram"), (batch, n_vec, n_vec), dt),
            ws.get((key, "pairs"), (batch, num_pairs), dt),
            ws.get((key, "out"), (batch, dim + num_pairs), dt),
        )
        return out, stack

    def dot_backward(self, stack, grad_out, dim, tril, pair_map, ws, key):
        batch, n_vec, _ = stack.shape
        num_sparse = n_vec - 1
        num_pairs = grad_out.shape[1] - dim
        dt = stack.dtype
        grad_dense_direct = grad_out[:, :dim]
        grad_pairs = grad_out[:, dim:]
        # The forward's gram buffer is dead by now — reuse it for the
        # symmetrized pair gradients.
        grad_stack = dk.dot_backward(
            stack,
            pair_map,
            grad_pairs,
            ws.get((key, "pairs_ext"), (batch, num_pairs + 1), dt),
            ws.get((key, "gram"), (batch, n_vec, n_vec), dt),
            ws.get((key, "gstack"), (batch, n_vec, dim), dt),
        )
        grad_dense = ws.get((key, "gdense"), (batch, dim), dt)
        np.add(grad_stack[:, 0, :], grad_dense_direct, out=grad_dense)
        grad_embs = [grad_stack[:, i + 1, :] for i in range(num_sparse)]
        return grad_dense, grad_embs

    def concat_forward(self, dense, embs, dim, ws, key):
        batch, w = dense.shape
        out = ws.get((key, "out"), (batch, w + len(embs) * dim), dense.dtype)
        out[:, :w] = dense
        for i, emb in enumerate(embs):
            out[:, w + i * dim : w + (i + 1) * dim] = emb
        return out

    # -- segment pooling -----------------------------------------------------

    def segment_pool(self, weight, values, offsets):
        return gather_pool(weight, values, offsets)

    def segment_pool_backward(self, values, lengths, grad_out):
        return expand_coalesce(values, lengths, grad_out)

    # -- optimizer steps -----------------------------------------------------

    def adagrad_dense_step(self, value, grad, state, lr, eps, ws):
        dk.adagrad_dense_step(
            value, grad, state, lr, eps,
            ws.get("opt.t", value.shape, value.dtype),
            ws.get("opt.u", value.shape, value.dtype),
        )

    @staticmethod
    def _block_bufs(ws, values, slots):
        """The sparse steps' reused block buffers (one fixed shape per row
        width, so the arena never regrows them)."""
        shape = (dk.sparse_block_rows(values), *values.shape[1:])
        return [ws.get(("opt.rows", slot), shape, values.dtype) for slot in slots]

    def adagrad_sparse_step(self, weight, state, rows, values, lr, eps, ws):
        bufs = self._block_bufs(ws, values, "stu")
        dk.adagrad_sparse_step(weight, state, rows, values, lr, eps, *bufs)

    def sgd_dense_step(self, value, grad, lr, ws, *, weight_decay=0.0,
                       momentum=0.0, velocity=None):
        dk.sgd_dense_step(
            value, grad, lr,
            ws.get("opt.t", value.shape, value.dtype),
            weight_decay=weight_decay, momentum=momentum, velocity=velocity,
        )

    def sgd_sparse_step(self, weight, rows, values, lr, ws):
        bufs = self._block_bufs(ws, values, "su")
        dk.sgd_sparse_step(weight, rows, values, lr, *bufs)
