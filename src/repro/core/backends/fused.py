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

import itertools
from functools import partial

import numpy as np

from .. import dense_kernels as dk
from ..lanes import block_run, dot_floor, row_block, split_is_exact, stack_floor
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
        return dk.relu_backward(grad_out, ctx, *_relu_grad_bufs(grad_out, ctx, ws, key))

    # -- MLP stacks ----------------------------------------------------------

    def mlp_forward(self, layers, x, lanes, *, training=True):
        """Rows of ``x`` through every layer (linear, then ReLU in place)
        into the layers' own arena buffers: whole on the caller, or — when
        the stack has :data:`~repro.core.lanes.LANE_MIN_FLOPS` per lane
        (:mod:`repro.core.lanes`) — a block of batch rows per lane.  Only a
        training pass saves what the backward reads.  Input the layers
        refuse goes to the layer loop, which raises, and so does an
        inference pass on the caller alone: the same kernels, less
        dispatch."""
        first = layers[0]
        if not _fits(first, x, first.in_features):
            return super().mlp_forward(layers, x, lanes, training=training)
        lanes = _stack_lanes(layers, x, lanes)
        if lanes is None and not training:
            return super().mlp_forward(layers, x, None, training=False)
        pairs = _pairs(layers)
        ws, rows = first.workspace, len(x)
        outs = [
            ws.get((lin._ws_key, "out"), (rows, lin.out_features), x.dtype)
            for lin, _ in pairs
        ]
        ins = [x, *outs[:-1]]
        split = [
            lanes is not None and _splits(a, lin.weight.value.T, lanes.width, ws)
            for a, (lin, _) in zip(ins, pairs)
        ]
        for run, laned in _runs(split):
            job = partial(_forward_rows, pairs[run], ins[run.start], outs[run])
            _on_rows(job, rows, lanes if laned else None)
        if not training:
            return outs[-1]
        for (lin, relu), a, out in zip(pairs, ins, outs):
            lin._input = a
            if relu is not None:
                relu._ctx = out  # what relu_forward saves: its output
        return outs[-1]

    def mlp_backward(self, layers, grad, lanes):
        """The backward after :meth:`mlp_forward`, in two passes: the
        input-gradient chain (ReLU backward, ``dx = g @ W``) through every
        layer by batch rows, then the weight gradients by weight rows
        (``dW[lo:hi] = g[:, lo:hi].T @ x``) — on lanes when the forward's
        would be.  Bias sums stay on the caller."""
        pairs = _pairs(layers)
        last = pairs[-1][0]
        saved = all(
            lin._input is not None and (relu is None or relu._ctx is not None)
            for lin, relu in pairs
        )
        if not saved or not _fits(last, grad, last.out_features):
            return super().mlp_backward(layers, grad, lanes)
        lanes = _stack_lanes(layers, grad, lanes)
        ws, rows = last.workspace, len(grad)
        chain = []  # top down: (linear, grad in, relu output, its grad, mask, dx)
        for lin, relu in reversed(pairs):
            y = None if relu is None else relu._ctx
            g, mask = (grad, None) if y is None else _relu_grad_bufs(grad, y, ws, relu._ws_key)
            dx = None
            if lin.input_grad:
                dx = ws.get((lin._ws_key, "gin"), (rows, lin.in_features), grad.dtype)
            chain.append((lin, grad, y, g, mask, dx))
            grad = dx
        split = [
            lanes is not None and (dx is None or _splits(g, lin.weight.value, lanes.width, ws))
            for lin, _, _, g, _, dx in chain
        ]
        for run, laned in _runs(split):
            _on_rows(partial(_chain_rows, chain[run]), rows, lanes if laned else None)

        jobs, bias = _weight_jobs(chain, lanes, ws)
        if len(jobs) > 1:
            lanes.each(partial(_weight_rows, jobs, bias))
        else:
            _weight_rows(jobs, bias, 0)
        for lin, relu in pairs:
            lin._input = None
            if relu is not None:
                relu._ctx = None
        return grad

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

    def dot_forward(self, dense, embs, tril, out_map, ws, key, *, training=True, lanes=None):
        """Blocked (:func:`~repro.core.dense_kernels.dot_forward`): whole on
        the caller, or a contiguous run of whole blocks per lane, each with
        its own scratch and its own rows of ``out``."""
        batch, dim = dense.shape
        dt = dense.dtype
        pooled = dk.feature_major(embs, ws, key)
        n_vec = len(pooled) + 1
        block, width = _dot_split(batch, n_vec, dt, lanes)
        out = ws.get((key, "out"), (batch, len(out_map)), dt)
        scratch = [
            (
                ws.get(_lane_key(key, "stack", k), (block, n_vec, dim), dt),
                ws.get(_lane_key(key, "stack_t", k), (block, dim, n_vec), dt),
                ws.get(_lane_key(key, "rows", k), (block, dim + n_vec * n_vec), dt),
            )
            for k in range(width)
        ]

        def rows(lane):
            lo, hi = _dot_rows(batch, block, lane, width)
            if lo < hi:
                dk.dot_forward(dense[lo:hi], pooled[:, lo:hi], out_map, *scratch[lane], out[lo:hi])

        _on_lanes(rows, width, lanes)
        # the backward re-reads both inputs block by block; neither is copied
        return out, (dense, pooled)

    def dot_backward(self, ctx, grad_out, dim, tril, pair_map, ws, key, *, lanes=None):
        """Blocked as :meth:`dot_forward`; each lane writes its own rows of
        ``gdense`` and its own batch columns of the feature-major
        ``gpooled``."""
        dense, pooled = ctx
        num_sparse, batch, _ = pooled.shape
        n_vec = num_sparse + 1
        dt = dense.dtype
        block, width = _dot_split(batch, n_vec, dt, lanes)
        gdense = ws.get((key, "gdense"), (batch, dim), dt)
        gpooled = ws.get((key, "gpooled"), pooled.shape, dt)
        scratch = [
            (
                ws.get(_lane_key(key, "stack", k), (block, n_vec, dim), dt),
                ws.get(_lane_key(key, "pairs_ext", k), (block, grad_out.shape[1] - dim + 1), dt),
                ws.get(_lane_key(key, "gram", k), (block, n_vec, n_vec), dt),
                ws.get(_lane_key(key, "gstack", k), (block, n_vec, dim), dt),
            )
            for k in range(width)
        ]

        def rows(lane):
            lo, hi = _dot_rows(batch, block, lane, width)
            if lo < hi:
                dk.dot_backward(
                    dense[lo:hi], pooled[:, lo:hi], pair_map, grad_out[lo:hi],
                    *scratch[lane], gdense[lo:hi], gpooled[:, lo:hi],
                )

        _on_lanes(rows, width, lanes)
        return gdense, gpooled

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


def _relu_grad_bufs(grad_out, y, ws, key):
    """``relu_backward`` 's result and mask buffers.  The result is the
    incoming gradient itself only when that is a contiguous arena array:
    the reference hands the next linear a fresh C-contiguous array, and a
    one-wide product's summation order follows its operand's layout
    (``concat_backward`` 's dense slice is a strided view)."""
    mask_buf = ws.get((key, "m"), y.shape, bool)
    if ws.owns(grad_out) and grad_out.dtype == y.dtype and grad_out.flags.c_contiguous:
        return grad_out, mask_buf
    return ws.get((key, "g"), grad_out.shape, grad_out.dtype), mask_buf


# -- the dot interaction on lanes -------------------------------------------------


def _dot_split(batch: int, n_vec: int, dtype, lanes) -> tuple[int, int]:
    """``(block, width)``: samples per block of the blocked interaction
    kernels, and the lanes its blocks go over — ``lanes.width`` when every
    lane gets :data:`~repro.core.lanes.LANE_MIN_BLOCKS` whole blocks, else
    1 (the caller)."""
    block = min(batch, dk.dot_block_rows(n_vec, dtype))
    if lanes is None or lanes.width < 2 or not dot_floor(batch, block, lanes.width):
        return block, 1
    return block, lanes.width


def _dot_rows(batch: int, block: int, lane: int, width: int) -> tuple[int, int]:
    """Lane ``lane``'s samples: its :func:`~repro.core.lanes.block_run` of
    the batch's blocks (the last one short)."""
    lo, hi = block_run(-(-batch // block), lane, width)
    return min(batch, lo * block), min(batch, hi * block)


def _lane_key(key, slot: str, lane: int):
    """Lane ``lane``'s arena key for ``slot``: lane 0 (the caller) keeps
    the one-lane key."""
    return (key, slot) if lane == 0 else (key, slot, lane)


def _on_lanes(job, width: int, lanes) -> None:
    """``job(lane)`` on every lane, or ``job(0)`` on the caller alone at
    ``width`` 1."""
    if width > 1:
        lanes.each(job)
    else:
        job(0)


# -- MLP stacks on lanes --------------------------------------------------------


def _pairs(layers) -> list[tuple]:
    """A stack's layers as ``(Linear, ReLU or None)`` pairs."""
    pairs = []
    for layer in layers:
        if hasattr(layer, "weight"):
            pairs.append((layer, None))
        else:
            pairs[-1] = (pairs[-1][0], layer)
    return pairs


def _fits(linear, a, cols: int) -> bool:
    """Whether ``a`` is what ``linear`` 's side of the stack takes: a
    ``(rows, cols)`` array of the weights' dtype."""
    return a.ndim == 2 and a.shape[1] == cols and a.dtype == linear.weight.value.dtype


def _stack_lanes(layers, a, lanes):
    """``lanes`` if a pass of the stack over ``a`` 's rows has
    :data:`~repro.core.lanes.LANE_MIN_FLOPS` of GEMM work per lane on
    them, else ``None`` (the caller alone)."""
    if lanes is None or lanes.width < 2:
        return None
    weights = sum(layer.weight.value.size for layer in layers if hasattr(layer, "weight"))
    return lanes if stack_floor(len(a), weights, lanes.width) else None


def _splits(a, b, width: int, ws) -> bool:
    """Whether ``a @ b`` runs in :func:`~repro.core.lanes.row_block` row
    blocks of ``a``: it must have more than one, and the split must be
    bit-identical to the whole call (:func:`~repro.core.lanes.
    split_is_exact`).  Each time a product runs whole because the probe
    refused its split, the arena registry's ``dense.lanes.rejected``
    counts one."""
    if row_block(len(a), 1, width)[0] >= len(a):
        return False
    if split_is_exact(a, b, width):
        return True
    ws.metrics.counter("dense.lanes.rejected").inc()
    return False


def _runs(flags):
    """``(slice, flag)`` for each run of equal consecutive ``flags``."""
    start = 0
    for flag, group in itertools.groupby(flags):
        stop = start + sum(1 for _ in group)
        yield slice(start, stop), flag
        start = stop


def _on_rows(job, rows: int, lanes) -> None:
    """``job(lo, hi)`` on every lane's row block of ``rows``; with
    ``lanes=None`` or rows that make one block, once on the caller over
    all of them."""
    if lanes is None or row_block(rows, 1, lanes.width)[0] >= rows:
        job(0, rows)
    else:
        lanes.each(lambda lane: job(*row_block(rows, lane, lanes.width)))


def _forward_rows(pairs, x, outs, lo: int, hi: int) -> None:
    """Rows ``lo:hi`` of ``x`` through linear + ReLU pairs into ``outs``:
    ``linear_forward`` and the in-place ``relu_forward``, per row block."""
    if lo == hi:
        return
    h = x[lo:hi]
    for (lin, relu), out in zip(pairs, outs):
        h = dk.linear_forward(h, lin.weight.value, lin.bias.value, out[lo:hi])
        if relu is not None:
            dk.relu_forward(h, h)


def _chain_rows(chain, lo: int, hi: int) -> None:
    """Rows ``lo:hi`` of the input-gradient chain: each ReLU's backward
    and each linear's ``dx = g @ W``, per row block."""
    if lo == hi:
        return
    for lin, grad, y, g, mask, dx in chain:
        if y is not None:
            dk.relu_backward(grad[lo:hi], y[lo:hi], g[lo:hi], mask[lo:hi])
        if dx is not None:
            np.matmul(g[lo:hi], lin.weight.value, out=dx[lo:hi])


def _weight_jobs(chain, lanes, ws):
    """Per lane, the weight-gradient blocks ``(g, x, wg, weight grad, lo,
    hi)`` it computes — one list, the caller's, unless a helper has work —
    and the bias sums (``(g, bg, bias grad)``, the caller's).  On lanes a
    product that splits gives every lane a block of weight rows, one that
    does not goes whole to the least-loaded lane."""
    width = 1 if lanes is None else lanes.width
    jobs: list[list[tuple]] = [[] for _ in range(width)]
    load = [0] * width
    whole, bias = [], []
    for lin, _, _, g, _, _ in chain:
        x = lin._input
        item = (g, x, ws.get((lin._ws_key, "wg"), lin.weight.shape, g.dtype), lin.weight.grad)
        bias.append((g, ws.get((lin._ws_key, "bg"), lin.bias.shape, g.dtype), lin.bias.grad))
        if lanes is not None and _splits(g.T, x, width, ws):
            for k in range(width):
                lo, hi = row_block(lin.out_features, k, width)
                jobs[k].append((*item, lo, hi))
                load[k] += (hi - lo) * lin.in_features
        else:
            whole.append((lin.weight.size, (*item, 0, lin.out_features)))
    for size, item in whole:
        k = load.index(min(load))
        jobs[k].append(item)
        load[k] += size
    return (jobs if any(jobs[1:]) else jobs[:1]), bias


def _weight_rows(jobs, bias, lane: int) -> None:
    """Lane ``lane``'s weight-gradient rows, accumulated into the
    parameters; lane 0 (the caller) also takes every bias sum."""
    for g, x, wg, weight_grad, lo, hi in jobs[lane]:
        if lo < hi:
            np.matmul(g[:, lo:hi].T, x, out=wg[lo:hi])
            weight_grad[lo:hi] += wg[lo:hi]
    if lane == 0:
        for g, bg, bias_grad in bias:
            np.sum(g, axis=0, out=bg)
            bias_grad += bg
