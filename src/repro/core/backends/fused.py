"""The ``"fused"`` backend: allocation-free kernels through the arena.

Every op routes to :mod:`repro.core.dense_kernels`, acquiring its scratch
and output buffers from the caller's
:class:`~repro.core.dense_kernels.Workspace` under the same ``(key, slot)``
scheme the layers historically used — so a steady-state train step
performs zero fresh large dense allocations.

Bit-identical to the ``"numpy"`` reference in both float64 and float32;
see the numerical contract in :mod:`repro.core.dense_kernels` for the
argument, and ``tests/conformance/`` for the enforcement.
"""

from __future__ import annotations

import numpy as np

from .. import dense_kernels as dk
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

    def linear_backward(self, grad_out, x, weight, weight_grad, bias_grad, ws, key,
                        *, dx=True):
        dtype = weight.dtype
        gin_shape = (grad_out.shape[0], weight.shape[1])
        grad_in = ws.get((key, "gin"), gin_shape, dtype) if dx else None
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

    def dot_forward(self, dense, embs, tril, out_map, ws, key, *, training=True):
        batch, dim = dense.shape
        dt = dense.dtype
        pooled = dk.feature_major(embs, ws, key)
        n_vec = len(pooled) + 1
        block = min(batch, dk.dot_block_rows(n_vec, dt))
        out = dk.dot_forward(
            dense,
            pooled,
            out_map,
            ws.get((key, "stack"), (block, n_vec, dim), dt),
            ws.get((key, "rows"), (block, dim + n_vec * n_vec), dt),
            ws.get((key, "out"), (batch, len(out_map)), dt),
        )
        # the backward re-reads both inputs block by block; neither is copied
        return out, (dense, pooled)

    def dot_backward(self, ctx, grad_out, dim, tril, pair_map, ws, key):
        dense, pooled = ctx
        num_sparse, batch, _ = pooled.shape
        n_vec = num_sparse + 1
        dt = dense.dtype
        block = min(batch, dk.dot_block_rows(n_vec, dt))
        return dk.dot_backward(
            dense,
            pooled,
            pair_map,
            grad_out,
            ws.get((key, "stack"), (block, n_vec, dim), dt),
            ws.get((key, "pairs_ext"), (block, grad_out.shape[1] - dim + 1), dt),
            ws.get((key, "gram"), (block, n_vec, n_vec), dt),
            ws.get((key, "gstack"), (block, n_vec, dim), dt),
            ws.get((key, "gdense"), (batch, dim), dt),
            ws.get((key, "gpooled"), pooled.shape, dt),
        )

    def concat_forward(self, dense, embs, dim, ws, key):
        batch, w = dense.shape
        pooled = dk.feature_major(embs, ws, key)
        out = ws.get((key, "out"), (batch, w + len(pooled) * dim), dense.dtype)
        out[:, :w] = dense
        out[:, w:].reshape(batch, len(pooled), dim)[...] = pooled.transpose(1, 0, 2)
        return out

    def concat_backward(self, grad_out, dense_width, num_sparse, dim, ws, key):
        batch = len(grad_out)
        grad_pooled = ws.get((key, "gpooled"), (num_sparse, batch, dim), grad_out.dtype)
        grad_pooled[...] = (
            grad_out[:, dense_width:].reshape(batch, num_sparse, dim).transpose(1, 0, 2)
        )
        return grad_out[:, :dense_width], grad_pooled

    # -- optimizer steps -----------------------------------------------------

    @staticmethod
    def _dense_bufs(ws, dtype, slots):
        """The dense steps' block buffers: one fixed shape per dtype,
        whatever the parameter — the optimizer's arena holds no copy of one."""
        return [ws.get(("opt.block", s), (dk.DENSE_STEP_BLOCK,), dtype) for s in slots]

    def adagrad_dense_step(self, value, grad, state, lr, eps, ws):
        bufs = self._dense_bufs(ws, value.dtype, "tu")
        dk.adagrad_dense_step(value, grad, state, lr, eps, *bufs)

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
            value, grad, lr, *self._dense_bufs(ws, value.dtype, "t"),
            weight_decay=weight_decay, momentum=momentum, velocity=velocity,
        )

    def sgd_sparse_step(self, weight, rows, values, lr, ws):
        bufs = self._block_bufs(ws, values, "su")
        dk.sgd_sparse_step(weight, rows, values, lr, *bufs)
