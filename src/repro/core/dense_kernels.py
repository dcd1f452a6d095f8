"""Fused dense-path kernels and the step-level workspace arena.

PR 2's sparse kernels (:mod:`repro.core.kernels`) moved the embedding half
of the train step off the profile; the measured hot path of every
functional-training experiment is now the *dense* half — ``Linear``/
``ReLU``/``DotInteraction`` backward, Adagrad's temporary-heavy updates and
the BCE loss.  That matches the paper's own characterization: on CPU
platforms the bottom/top MLP stacks dominate model compute (§III-A.4,
Fig 5), which is why Kalamkar et al. (arXiv:2005.04680) build fused,
allocation-free BLAS kernels for DLRM MLPs on CPU clusters.

This module provides the same treatment for our numpy training step:

* :class:`Workspace` — a per-model buffer arena.  Buffers are keyed by
  ``(key, shape, dtype)`` and reused across steps, so the steady-state
  train step performs **zero fresh large allocations** on the dense path
  (every matmul/elementwise op writes into a preallocated buffer via
  ``out=``).  Reuse is observable through the ``dense.workspace.hits`` /
  ``dense.workspace.misses`` counters.
* Fused kernels — ``linear_forward``/``linear_backward`` (GEMM into
  workspace buffers, gradient accumulation without the ``grad_out.T @ x``
  temporary), ``relu_forward``/``relu_backward`` (in-place ``np.maximum``
  forward, mask-free sign-based backward), ``bce_forward``/``bce_backward``
  (one ``exp(-|x|)`` pass shared between the loss value and the logit
  gradient — no double sigmoid), ``dot_forward``/``dot_backward``
  (cache-blocked over the batch: per block of :func:`dot_block_rows`
  samples the feature stack is assembled from the feature-major pooled
  embeddings, the reference's per-sample GEMM runs, and the triangle is
  gathered — resp. scattered once into both halves, no dense
  zeros+symmetrize round trip — while the block's gram matrices are still
  in L2; nothing ``batch x n_vec^2`` or ``batch x pairs`` is ever
  materialized but the output), and fused in-place Adagrad/SGD steps that
  walk each parameter once, a cache-sized block at a time, through two
  block-sized scratch buffers (no ``grad*grad`` / ``sqrt`` temporaries, no
  second copy of the parameter).
* :func:`feature_major` — the embedding -> interaction hand-off: one
  ``(features, batch, dim)`` array the tables pool into slab by slab and
  the interaction kernels read, and the one place a list of separate
  arrays is copied into it.

Numerical contract
------------------
Every fused kernel is **bit-identical** to the ``"numpy"`` backend's op of
the same name (:class:`repro.core.backends.numpy_ref.NumpyBackend`, the
historical implementation), in both float64 and float32 compute modes, in
the :func:`numpy.array_equal` sense used by :mod:`repro.core.kernels`'s
fused sparse paths.  The fusions only (a) reuse output storage via
``out=`` — numpy ufuncs and ``matmul`` produce the same values regardless
of where the result lands — and (b) re-associate nothing: every fused
sequence applies the exact same elementwise operations in the exact same
order as the reference expression; blocking (the dot interaction over
samples, the sparse optimizer steps over rows, the dense ones over
elements) regroups independent items and leaves each one's operations as
they were.  Two details worth calling out:

* the sign-based ReLU backward multiplies by a boolean mask, which maps a
  negative gradient at an inactive unit to ``-0.0`` where ``np.where``
  produces ``+0.0``; a final ``+ 0.0`` pass normalizes the zero sign so the
  result is bit-identical, not merely value-equal;
* the fused BCE evaluates the stable sigmoid from the shared
  ``e = exp(-|x|)``: for ``x >= 0``, ``exp(-x) == exp(-|x|)`` elementwise,
  so ``1/(1+e)`` and ``e/(1+e)`` reproduce the two branches of
  :func:`stable_sigmoid` exactly.

Opt-out: ``backend="numpy"`` (on ``ModelConfig`` and the optimizers) falls
back to that reference backend for debugging.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..obs.registry import MetricsRegistry
from .kernels import check_bounds

__all__ = [
    "Workspace",
    "stable_sigmoid",
    "linear_forward",
    "linear_backward",
    "relu_forward",
    "relu_backward",
    "bce_forward",
    "bce_backward",
    "feature_major",
    "dot_block_rows",
    "dot_out_map",
    "symmetric_pair_map",
    "dot_forward",
    "dot_backward",
    "adagrad_dense_step",
    "sgd_dense_step",
    "DENSE_STEP_BLOCK",
    "adagrad_sparse_step",
    "sgd_sparse_step",
    "sparse_block_rows",
]


class Workspace:
    """A buffer arena for the fused dense train step.

    ``get(key, shape, dtype)`` returns a preallocated buffer, allocating on
    first use and reusing it on every subsequent call with the same
    ``(key, shape, dtype)``.  Callers use distinct keys per layer/slot so no
    two live tensors ever alias.  Distinct batch sizes get distinct buffers
    (exact-shape matching avoids reallocation ping-pong when two batch
    sizes interleave, e.g. a ragged final batch); the arena's footprint is
    bounded by the number of distinct shapes seen, which for a training run
    is the per-layer activation set times the number of batch sizes.

    Lifetime contract: a buffer belongs to its key's *next* ``get`` — a
    layer's output lives until that layer's next forward, an input
    gradient until its next backward — so whoever keeps a result across
    steps copies it (``DLRM.forward`` peels the logits off for that
    reason).  The embedding tables draw from the same arena through
    :meth:`get_rows` (their row counts move from step to step) and state
    what that means for pooled outputs and pending sparse gradients in
    :mod:`repro.core.embedding`.

    The arena is observable: ``dense.workspace.hits`` / ``.misses``
    counters tick on every ``get`` (a *miss* is a fresh allocation), so a
    steady-state train step shows only hits.  ``get`` and ``get_rows``
    hold a lock, so tables on several lanes (:mod:`repro.core.lanes`) may
    draw their own keys at once and the counters stay exact.

    Pickling drops the buffers (they are pure caches), so models carrying a
    workspace remain cheap to ship through :class:`repro.runtime.SweepRunner`
    process pools — each worker re-warms its own arena.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._buffers: dict[tuple, np.ndarray] = {}
        self._owned: set[int] = set()
        self._lock = threading.Lock()
        # ``get`` runs several times per layer per step; resolve the two
        # counters once (registry lookup per call is measurable on small
        # models) and bump ``.value`` directly on the hot path.
        self._hits = self.metrics.counter("dense.workspace.hits")
        self._misses = self.metrics.counter("dense.workspace.misses")

    # -- allocation ----------------------------------------------------------

    def get(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Return a reusable buffer of exactly ``shape``/``dtype`` for ``key``.

        The buffer's contents are unspecified (callers must fully overwrite
        it); the first call allocates, subsequent calls reuse.
        """
        slot = (key, shape, np.dtype(dtype))
        with self._lock:
            buf = self._buffers.get(slot)
            if buf is None:
                buf = np.empty(shape, dtype=dtype)
                self._buffers[slot] = buf
                self._owned.add(id(buf))
                self._misses.value += 1.0
            else:
                self._hits.value += 1.0
        return buf

    def get_rows(
        self, key, rows: int, width: tuple[int, ...], dtype, fill=None
    ) -> np.ndarray:
        """The first ``rows`` rows of ``key``'s grow-only ``(capacity,
        *width)`` buffer.

        For results whose row count is data-dependent (the unique rows of a
        sparse gradient): exact-shape :meth:`get` would mint a buffer per
        distinct count.  A request within capacity is a hit; a larger one
        replaces the buffer (contents are not carried over) with one 1/16
        above the request, so a count that wanders around its mean misses
        once, not at every new maximum, while the pages ever touched — the
        resident footprint — stay at the high-water mark.  ``fill``
        initialises each new buffer for callers that never write it (the
        all-ones vector); otherwise contents are unspecified.
        """
        slot = (key, "rows", width, np.dtype(dtype))
        with self._lock:
            buf = self._buffers.get(slot)
            if buf is None or len(buf) < rows:
                if buf is not None:
                    self._owned.discard(id(buf))
                buf = np.empty((rows + (rows >> 4), *width), dtype=dtype)
                if fill is not None:
                    buf.fill(fill)
                self._buffers[slot] = buf
                self._owned.add(id(buf))
                self._misses.value += 1.0
            else:
                self._hits.value += 1.0
        return buf[:rows]

    # -- introspection -------------------------------------------------------

    def owns(self, arr: np.ndarray) -> bool:
        """True if ``arr`` is an arena buffer (or a view of one).

        The in-place fusions (ReLU forward, ReLU backward on the incoming
        gradient) are only legal on arena-owned storage — never on arrays
        the caller handed us.
        """
        seen = 0
        while isinstance(arr, np.ndarray):
            if id(arr) in self._owned:
                return True
            base = arr.base
            if base is None or seen > 8:
                return False
            arr = base
            seen += 1
        return False

    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def stats(self) -> dict[str, int]:
        """Arena counters + footprint (mirrors ``runtime.cache.stats``)."""
        return {
            "buffers": len(self._buffers),
            "bytes": self.total_bytes(),
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
        }

    def clear(self) -> None:
        self._buffers.clear()
        self._owned.clear()

    # -- pickling (SweepRunner process pools) --------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_buffers"] = {}
        state["_owned"] = set()
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


# ---------------------------------------------------------------------------
# stable sigmoid (single shared implementation — see loss.py / mlp.py)
# ---------------------------------------------------------------------------


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, dtype-preserving.

    The single implementation behind both :class:`repro.core.mlp.Sigmoid`
    and :func:`repro.core.loss.sigmoid` (historically two copies, one of
    which silently upcast float32 logits to float64).  Float inputs keep
    their dtype; non-float inputs (ints/bools) compute in float64.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    if out is None:
        out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fused: GEMM straight into ``out``, bias added in place.

    Bit-identity: ``matmul`` computes the same values regardless of output
    storage, and ``out += bias`` applies the identical broadcast add.
    """
    np.matmul(x, weight.T, out=out)
    out += bias
    return out


def linear_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    weight_grad: np.ndarray,
    bias_grad: np.ndarray,
    grad_in: np.ndarray | None,
    wg_buf: np.ndarray,
    bg_buf: np.ndarray,
) -> np.ndarray | None:
    """Fused: accumulate ``dW``/``db`` into the parameter gradients through
    reused scratch buffers (no fresh ``grad_out.T @ x`` temporary) and write
    ``dx`` into ``grad_in`` — or, with ``grad_in=None`` (a layer whose input
    is data), skip that GEMM and return ``None``.

    Bit-identity: ``+=`` of the buffered GEMM result matches ``+=`` of a
    fresh temporary holding the same values; ``np.sum(..., out=)`` and
    ``np.matmul(..., out=)`` likewise only change where results land.
    ``dW``/``db`` read nothing ``dx`` writes, so dropping it changes neither.
    """
    np.matmul(grad_out.T, x, out=wg_buf)
    weight_grad += wg_buf
    np.sum(grad_out, axis=0, out=bg_buf)
    bias_grad += bg_buf
    if grad_in is None:
        return None
    return np.matmul(grad_out, weight, out=grad_in)


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------


def relu_forward(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fused: ``np.maximum(x, 0, out=out)`` — ``out`` may be ``x`` itself
    (in-place) when the caller owns the storage.

    Bit-identity: for any non-NaN ``v``, ``maximum(v, 0.0)`` equals
    ``where(v > 0, v, 0.0)`` including the sign of zero (both return
    ``+0.0`` for ``v = ±0.0``).  No mask is materialized: the backward
    recovers activity from the *output* sign (``y > 0  ⇔  x > 0``).
    """
    return np.maximum(x, 0.0, out=out)


def relu_backward(
    grad_out: np.ndarray, y: np.ndarray, out: np.ndarray, mask_buf: np.ndarray
) -> np.ndarray:
    """Fused mask-free backward: ``dx = grad_out * (y > 0)``.

    ``out`` may alias ``grad_out`` (in-place on the incoming gradient
    buffer).  The boolean multiply maps a negative gradient at an inactive
    unit to ``-0.0``; the final ``+ 0.0`` normalizes zero signs so the
    result is bit-identical to the ``np.where`` reference (for all finite
    ``v``, ``v + 0.0 == v`` with ``-0.0 → +0.0``).
    """
    np.greater(y, 0, out=mask_buf)
    np.multiply(grad_out, mask_buf, out=out)
    np.add(out, 0.0, out=out)
    return out


# ---------------------------------------------------------------------------
# Sigmoid + BCE (fused loss)
# ---------------------------------------------------------------------------


def bce_forward(
    logits: np.ndarray,
    labels: np.ndarray,
    e_buf: np.ndarray,
    per_buf: np.ndarray,
    tmp_buf: np.ndarray,
    sig_buf: np.ndarray,
    denom_buf: np.ndarray,
    pos_buf: np.ndarray,
) -> float:
    """Fused sigmoid+BCE forward: one ``e = exp(-|x|)`` pass serves both the
    loss value and the sigmoid needed by the backward (left in ``sig_buf``),
    eliminating the second sigmoid evaluation of the naive pair.

    Bit-identity: the loss accumulates ``max(x,0)``, ``- x·y`` and
    ``+ log1p(e)`` in the reference expression's association order; the
    sigmoid branches ``1/(1+e)`` (for ``x ≥ 0``) and ``e/(1+e)`` (else)
    evaluate exactly the same scalar expressions as :func:`stable_sigmoid`,
    since ``exp(-x) = exp(-|x|)`` when ``x ≥ 0`` and ``exp(x) = exp(-|x|)``
    when ``x < 0``.
    """
    np.abs(logits, out=e_buf)
    np.negative(e_buf, out=e_buf)
    np.exp(e_buf, out=e_buf)  # e = exp(-|x|)
    # loss = mean(max(x,0) - x*y + log1p(e)), same association as reference
    np.maximum(logits, 0.0, out=per_buf)
    np.multiply(logits, labels, out=tmp_buf)
    per_buf -= tmp_buf
    np.log1p(e_buf, out=tmp_buf)
    per_buf += tmp_buf
    # sigmoid from the same e, into sig_buf for the backward
    np.add(e_buf, 1.0, out=denom_buf)
    np.divide(e_buf, denom_buf, out=sig_buf)  # x < 0 branch: e / (1 + e)
    np.divide(1.0, denom_buf, out=denom_buf)  # x >= 0 branch: 1 / (1 + e)
    np.greater_equal(logits, 0, out=pos_buf)
    np.copyto(sig_buf, denom_buf, where=pos_buf)
    return float(per_buf.mean())


def bce_backward(
    sig: np.ndarray, labels: np.ndarray, grad_buf: np.ndarray
) -> np.ndarray:
    """Fused backward from the forward's saved sigmoid: ``(σ(x) - y) / B``.

    Bit-identity: the subtraction and scalar division match the reference's
    ``(sigmoid(x) - labels) / len(...)`` order exactly; the sigmoid values
    are the forward's, which are bit-identical to a fresh
    :func:`stable_sigmoid` pass (see :func:`bce_forward`).
    """
    np.subtract(sig, labels, out=grad_buf)
    np.divide(grad_buf, len(grad_buf), out=grad_buf)
    return grad_buf


# ---------------------------------------------------------------------------
# Embedding -> interaction hand-off, dot interaction
# ---------------------------------------------------------------------------


def feature_major(embs, ws: Workspace, key) -> np.ndarray:
    """The pooled embeddings as the one feature-major ``(features, batch,
    dim)`` array the fused interaction kernels read: slab ``i`` is feature
    ``i``'s C-contiguous ``(batch, dim)`` output, so each table's CSR kernel
    writes it in place (``EmbeddingBagCollection.forward``).

    ``embs`` is that array already (what ``DLRM`` hands over) or a sequence
    of ``(batch, dim)`` arrays.  A sequence listing, in order, the slabs of
    one such array is that array; any other is copied into an arena buffer
    — here and nowhere else.
    """
    if isinstance(embs, np.ndarray):
        return embs
    first = embs[0]
    whole = first.base
    if (
        isinstance(whole, np.ndarray)
        and whole.shape == (len(embs), *first.shape)
        and whole.dtype == first.dtype
        and whole.flags.c_contiguous
    ):
        step, origin = whole.strides[0], whole.ctypes.data
        if all(
            e.base is whole
            and e.shape == first.shape
            and e.strides == whole.strides[1:]
            and e.ctypes.data == origin + i * step
            for i, e in enumerate(embs)
        ):
            return whole
    buf = ws.get((key, "pooled"), (len(embs), *first.shape), first.dtype)
    for slab, emb in zip(buf, embs):
        slab[...] = emb
    return buf


#: Bytes of gram matrices per batch block of the dot interaction; the
#: block's feature stack and pair buffers then share L2 with them.  At 61
#: vectors f32 (35 samples) 16- and 35-sample blocks measure the same, 70
#: samples 7 % and 140 samples 15 % slower.
_DOT_BLOCK_BYTES = 512 * 1024


def dot_block_rows(n_vec: int, dtype) -> int:
    """Samples per block of :func:`dot_forward` / :func:`dot_backward`."""
    return max(1, _DOT_BLOCK_BYTES // (n_vec * n_vec * np.dtype(dtype).itemsize))


def dot_out_map(dim: int, n_vec: int, tril: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Gather map from a block row ``[dense (dim) | gram (n_vec * n_vec)]``
    to :func:`dot_forward` 's output row: the dense columns, then the flat
    offsets ``i * n_vec + j`` of the strict lower triangle."""
    flat_tril = tril[0] * n_vec + tril[1]
    return np.concatenate([np.arange(dim), dim + flat_tril]).astype(np.intp)


def symmetric_pair_map(n_vec: int, tril: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Flat gather map building the symmetrized pair-gradient matrix in one
    ``np.take``: cell ``(i, j)`` maps to its pair index (both triangles map
    to the *same* index — the transpose is folded into the map) and the
    diagonal maps to slot ``P``, which callers keep at zero.
    """
    num_pairs = len(tril[0])
    full_map = np.full((n_vec, n_vec), num_pairs, dtype=np.intp)
    pair_idx = np.arange(num_pairs, dtype=np.intp)
    full_map[tril[0], tril[1]] = pair_idx
    full_map[tril[1], tril[0]] = pair_idx
    return full_map.reshape(-1)


def _stack_block(dense: np.ndarray, pooled: np.ndarray, a: int, stack: np.ndarray):
    """Samples ``a .. a + len(stack)`` as the ``(k, n_vec, dim)`` feature
    stack ``[dense, emb_1, ...]``: one transposing copy of the slabs."""
    b = a + len(stack)
    stack[:, 0, :] = dense[a:b]
    stack[:, 1:, :] = pooled[:, a:b, :].transpose(1, 0, 2)


def dot_forward(
    dense: np.ndarray,
    pooled: np.ndarray,
    out_map: np.ndarray,
    stack_buf: np.ndarray,
    stack_t_buf: np.ndarray,
    row_buf: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Fused and cache-blocked: the batch is walked ``len(row_buf)``
    samples at a time (:func:`dot_block_rows`).  Per block the feature
    stack is assembled from ``dense`` and the feature-major ``pooled`` and
    copied, transposed, into ``stack_t_buf``; one GEMM per sample writes
    its gram next to the block's dense columns in ``row_buf``, and one
    ``np.take`` through :func:`dot_out_map` moves ``[dense | triangle]``
    into ``out`` while the grams are in L2 — no ``(batch, n_vec, n_vec)``
    gram, no ``(batch, pairs)`` staging buffer.

    The copy is the route: handed ``stack`` and its own transposed view,
    numpy calls BLAS ``?syrk`` per sample and mirrors the triangle element
    by element (2.0x the GEMM's time at 61 vectors x dim 16, f32); two
    operands that share no memory take ``?gemm``.

    Bit-identity: samples are independent, and each one's gram is the
    reference's ``stack @ contiguous(stack^T)`` GEMM on a contiguous
    ``(n_vec, dim)`` matrix whatever block it falls in, so blocking
    regroups calls and changes no bit; ``take`` reads exactly the elements
    ``gram[:, i, j]`` the reference gathers, behind the dense columns it
    concatenates.
    """
    n_vec, dim = stack_buf.shape[1:]
    block = len(row_buf)
    for a in range(0, len(dense), block):
        k = min(block, len(dense) - a)
        stack, stack_t, rows = stack_buf[:k], stack_t_buf[:k], row_buf[:k]
        _stack_block(dense, pooled, a, stack)
        stack_t[...] = stack.transpose(0, 2, 1)
        rows[:, :dim] = stack[:, 0, :]
        gram = rows[:, dim:].reshape(k, n_vec, n_vec)
        np.matmul(stack, stack_t, out=gram)
        # out_map is in range by construction; "clip" lets take write
        # straight into out= ("raise" stages it in a hidden buffer).
        np.take(rows, out_map, axis=1, out=out[a : a + k], mode="clip")
    return out


def dot_backward(
    dense: np.ndarray,
    pooled: np.ndarray,
    pair_map: np.ndarray,
    grad_out: np.ndarray,
    stack_buf: np.ndarray,
    pairs_ext_buf: np.ndarray,
    gram_buf: np.ndarray,
    grad_stack_buf: np.ndarray,
    grad_dense: np.ndarray,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked like :func:`dot_forward` (``len(gram_buf)`` samples at a
    time).  Per block: re-assemble the feature stack; build the symmetrized
    pair-gradient matrices with a single ``np.take`` through
    :func:`symmetric_pair_map` (transpose *and* scatter folded into the
    gather map — no dense zeros, no ``G + G^T`` round trip, no fancy-index
    scatters, which dominate the reference at large table counts) from
    ``pairs_ext_buf``, a ``(block, P+1)`` staging buffer whose last column
    is the diagonal's zero slot; one GEMM per sample; then the dense row
    plus its direct gradient into ``grad_dense`` and the embedding rows
    transposed back into the feature-major ``grad_pooled``, so every
    table's gradient is a contiguous slab.

    Bit-identity: the reference's ``G + G^T`` holds ``v + 0 = v`` at every
    triangle position and ``0.0`` on the diagonal (the triangle is strict);
    gathering ``v`` into both mirror positions and ``0.0`` onto the
    diagonal produces the identical matrix, and the GEMM is the
    reference's per-sample call (blocking: see :func:`dot_forward`).
    """
    n_vec, dim = stack_buf.shape[1:]
    num_pairs = grad_out.shape[1] - dim
    block = len(gram_buf)
    pairs_ext_buf[:, num_pairs] = 0.0
    for a in range(0, len(dense), block):
        k = min(block, len(dense) - a)
        stack, ext, gram, grad_stack = (
            stack_buf[:k], pairs_ext_buf[:k], gram_buf[:k], grad_stack_buf[:k]
        )
        _stack_block(dense, pooled, a, stack)
        ext[:, :num_pairs] = grad_out[a : a + k, dim:]
        # pair_map is in range by construction (mode="clip": see dot_forward)
        np.take(ext, pair_map, axis=1, out=gram.reshape(k, n_vec * n_vec), mode="clip")
        np.matmul(gram, stack, out=grad_stack)
        np.add(grad_stack[:, 0, :], grad_out[a : a + k, :dim], out=grad_dense[a : a + k])
        grad_pooled[:, a : a + k, :] = grad_stack[:, 1:, :].transpose(1, 0, 2)
    return grad_dense, grad_pooled


# ---------------------------------------------------------------------------
# Optimizer steps
# ---------------------------------------------------------------------------


#: Elements per block of the dense optimizer steps: a block of ``value``,
#: ``grad``, ``state`` and the two scratch buffers (640 KiB in f32) stays in
#: L2 across the step's seven passes.  Over ``train_mlp``'s 2.9 M f32
#: parameters 32 K and 64 K elements measure the same (5.3 ms), 16 K 9 %,
#: 128 K 13 % and 8 K 34 % slower, whole arrays 7.3 ms; f64 is flat from
#: 16 K to 64 K.
DENSE_STEP_BLOCK = 32 * 1024


def _flat_blocks(bufs: tuple[np.ndarray, ...], **arrays: np.ndarray):
    """The one walker of the dense optimizer steps: the named arrays as
    flat views, ``len(bufs[0])`` elements at a time, each block a tuple of
    the arrays' slices followed by the equally long heads of ``bufs``.

    Every array must be C-contiguous and of the first one's shape — checked
    here, before the caller writes anything: ``reshape(-1)`` of a strided
    array is a copy, and the update written through it would be lost.
    """
    shape = np.shape(next(iter(arrays.values())))
    for name, arr in arrays.items():
        if (
            not isinstance(arr, np.ndarray)
            or arr.shape != shape
            or not arr.flags.c_contiguous
        ):
            raise ValueError(
                f"{name} must be a C-contiguous array of shape {shape}, "
                f"got {arr!r:.80}"
            )
    flats = [arr.reshape(-1) for arr in arrays.values()]
    block = len(bufs[0])
    for a in range(0, flats[0].size, block):
        views = [f[a : a + block] for f in flats]
        yield (*views, *(b[: len(views[0])] for b in bufs))


def adagrad_dense_step(
    value: np.ndarray,
    grad: np.ndarray,
    state: np.ndarray,
    lr: float,
    eps: float,
    t_buf: np.ndarray,
    u_buf: np.ndarray,
) -> None:
    """Fused Adagrad, cache-blocked: the parameter is walked once,
    ``len(t_buf)`` elements at a time (:data:`DENSE_STEP_BLOCK`), and both
    temporaries live in the two block-sized scratch buffers — no full-size
    copy of the parameter exists beside ``value`` / ``grad`` / ``state``.

    Bit-identity: the reference evaluates ``(lr * grad) / (sqrt(state) +
    eps)`` — numerator first — and the fused sequence preserves exactly
    that association (``u = grad * lr``; ``u /= t``), so no rounding
    differs; elements are independent, so blocking only regroups them.
    """
    blocks = _flat_blocks((t_buf, u_buf), value=value, grad=grad, state=state)
    for v, g, s, t, u in blocks:
        np.multiply(g, g, out=t)
        s += t
        np.sqrt(s, out=t)
        np.add(t, eps, out=t)
        np.multiply(g, lr, out=u)
        np.divide(u, t, out=u)
        v -= u


def sgd_dense_step(
    value: np.ndarray,
    grad: np.ndarray,
    lr: float,
    t_buf: np.ndarray,
    weight_decay: float = 0.0,
    momentum: float = 0.0,
    velocity: np.ndarray | None = None,
) -> None:
    """Fused SGD, blocked like :func:`adagrad_dense_step`: the
    ``weight_decay * value``, effective-gradient and ``lr * v`` temporaries
    all land in one block-sized scratch buffer.

    Bit-identity: each fused line computes the same scalar expression in
    the same order as the reference (``wd*value`` then ``grad + ·``;
    ``v*m`` in place then ``+ grad``; ``lr * g`` then subtract).
    """
    arrays = {"value": value, "grad": grad}
    if velocity is not None:
        arrays["velocity"] = velocity
    for v, g, *vel, t in _flat_blocks((t_buf,), **arrays):
        if weight_decay:
            np.multiply(v, weight_decay, out=t)
            np.add(g, t, out=t)
            g = t
        if vel:
            (m,) = vel
            m *= momentum
            m += g
            g = m
        np.multiply(g, lr, out=t)
        v -= t


#: Bytes per block buffer of the row-sparse optimizer steps: three buffers
#: plus the gradient block (512 KiB) stay in L2.  256-1024-row blocks at
#: dim 64 f32 measure the same; 128 and 2048 are 25-40 % slower.
_SPARSE_BLOCK_BYTES = 128 * 1024


def sparse_block_rows(values: np.ndarray) -> int:
    """Rows per block for ``(k, *trailing)`` gradients (512 at dim 64 f32)."""
    row_bytes = values.itemsize * math.prod(values.shape[1:])
    return max(1, _SPARSE_BLOCK_BYTES // row_bytes)


def adagrad_sparse_step(
    weight: np.ndarray,
    state: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    lr: float,
    eps: float,
    s_buf: np.ndarray,
    t_buf: np.ndarray,
    u_buf: np.ndarray,
) -> None:
    """Fused row-sparse Adagrad: cache-blocked and allocation-free.

    ``rows`` must be unique (coalesced) — :class:`repro.core.embedding.
    SparseGrad` guarantees sorted-unique rows — so the in-place updates on
    the gathered blocks are exact.  Rows are walked in blocks of
    ``len(s_buf)`` (:func:`sparse_block_rows`) through the three reused
    buffers: each row's state and weight are gathered, updated and
    scattered while the block is in L2, where whole-batch slabs streamed
    seven elementwise passes through it.

    The gathers pass ``mode="clip"`` because numpy stages ``take(out=)`` in
    a hidden buffer under ``"raise"`` (~3x slower than a fancy gather
    here); ``check_bounds`` up front keeps an out-of-range row an
    ``IndexError``, raised before anything is written.

    Bit-identity: per row the reference's gather, ``+= v*v``, scatter and
    ``(lr*v) / (sqrt(s)+eps)`` association, then the gather / ``-= u`` /
    scatter that numpy's fancy in-place subtract performs; blocking only
    regroups independent rows.
    """
    check_bounds(rows, len(weight), what="sparse rows")
    block = len(s_buf)
    for a in range(0, len(rows), block):
        r, v = rows[a : a + block], values[a : a + block]
        s, t, u = s_buf[: len(r)], t_buf[: len(r)], u_buf[: len(r)]
        np.take(state, r, axis=0, out=s, mode="clip")
        np.multiply(v, v, out=t)
        s += t
        state[r] = s
        np.sqrt(s, out=t)
        np.add(t, eps, out=t)
        np.multiply(v, lr, out=u)
        np.divide(u, t, out=u)
        np.take(weight, r, axis=0, out=s, mode="clip")
        s -= u
        weight[r] = s


def sgd_sparse_step(
    weight: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    lr: float,
    s_buf: np.ndarray,
    u_buf: np.ndarray,
) -> None:
    """Fused row-sparse SGD, blocked like :func:`adagrad_sparse_step`;
    bit-identical to ``weight[rows] -= lr * values``."""
    check_bounds(rows, len(weight), what="sparse rows")
    block = len(s_buf)
    for a in range(0, len(rows), block):
        r = rows[a : a + block]
        s, u = s_buf[: len(r)], u_buf[: len(r)]
        np.multiply(values[a : a + block], lr, out=u)
        np.take(weight, r, axis=0, out=s, mode="clip")
        s -= u
        weight[r] = s
