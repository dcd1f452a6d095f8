"""Vectorized fast-path kernels for the sparse half of the model.

The hot operations of embedding-bag training — pooled segment reduction,
sparse-gradient coalescing, ragged truncation and index-bounds validation —
were originally written with ``np.add.at`` and per-sample Python loops.
Both are well-known numpy anti-patterns: ``np.add.at`` dispatches one
scalar-ish ufunc inner loop per index, and Python-loop truncation costs
O(batch) interpreter round trips per feature per step.

This module replaces them with contiguous, single-dispatch kernels:

* :func:`segment_sum` / :func:`segment_mean` — pooled reduction over a CSR
  ragged layout expressed as the product ``S @ data`` where ``S`` is the
  (segments x lookups) indicator matrix sharing the ragged offsets as its
  ``indptr``.  ``S`` is never built: :func:`_indicator_matmul` hands the
  index arrays as they are to SciPy's compiled ``csr_matvecs`` routine —
  the one its CSR class's ``@`` dispatches to — which runs one C loop
  with a dense inner loop over the embedding dim, an order of magnitude
  faster than both ``np.add.at`` and ``np.add.reduceat`` (whose inner loop
  is not vectorized across the trailing axis).  ``np.add.reduceat`` remains
  as the fallback when SciPy is unavailable or dtypes are exotic;
* :func:`gather_pool` — the *fused* embedding-bag forward: pooled lookup
  as ``S @ weight`` where the lookup indices are ``S``'s column indices.
  The ``(total_lookups, dim)`` gathered-row temporary of the
  gather-then-pool formulation is never materialized — the CSR kernel
  streams rows of ``weight`` straight into the pooled output, which is
  what makes small batches fast (the temporaries, not the FLOPs, dominate
  there);
* :func:`coalesce_rows` — duplicate-row gradient summation via a stable
  sort + the same indicator product (the column order performs the
  permutation, so the sorted gradient copy is never materialized) instead
  of ``np.unique`` + ``np.add.at``;
* :func:`expand_coalesce` — the fused embedding-bag backward: for pooled
  bags every lookup in sample ``i`` receives ``grad_out[i]``, so the
  per-row gradient sums are ``T @ grad_out`` with ``T[r, sample_of[j]]
  += 1`` for each occurrence ``j`` of row ``r``.  The ``np.repeat``
  expansion of ``grad_out`` to one row per lookup is never materialized
  (the kernel re-reads the small ``(batch, dim)`` gradient, which stays
  cache-resident, instead of streaming a lookup-sized copy);
* :func:`truncate_ragged` — fully vectorized per-sample truncation using an
  ``arange(total) - repeat(starts)`` position mask;
* :func:`check_bounds` — single-pass index validation using an unsigned
  reinterpretation (negative indices become huge, so *one* comparison
  catches both underflow and overflow).

Numerical contract: within each segment/row group the additions cover the
same elements as the ``np.add.at`` originals, but ``reduceat``'s vectorized
inner loop may re-associate a sum, so individual outputs can differ from
the originals by ~1 ULP (the agreement is pinned at 1e-12 by
``tests/conformance/test_conformance_sparse.py``).  The kernels
themselves are deterministic:
identical inputs produce identical bits on every run and in every worker
process, which is what the runtime cache and the parallel-equals-serial
sweep contract rely on.  The ``naive_*`` reference implementations of the
replaced code paths live beside the equivalence tests.

Results land where the caller says: :func:`segment_sum`,
:func:`gather_pool`, :func:`coalesce_apply` and :func:`expand_apply` take
``out=`` (a C-contiguous array of exactly the result's shape and dtype,
overwritten and returned) and the two the embedding tables call every
step also ``ones=`` (the indicator's all-ones data vector), so a table
holding a :class:`~repro.core.dense_kernels.Workspace` runs its step
without a fresh result per call; ``None`` allocates, as before.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np


def _load_csr_matvecs():
    """SciPy's compiled ``csr_matvecs``, or ``None`` (the numpy path).

    The routine lives in the extension module ``scipy.sparse._sparsetools``,
    which needs nothing of scipy but numpy's C API.  Importing it by name
    runs ``scipy/sparse/__init__.py`` first — about 325 modules and ~20 MB
    of RSS, of which the step calls nothing — so the extension file is
    loaded by itself from scipy's package directory
    (``find_spec("scipy")`` locates it without importing scipy) and then
    taken out of ``sys.modules`` again, so a later ``import scipy.sparse``
    loads and binds it as it always did.  When the file is not where a
    scipy wheel puts it, the regular import is tried; without scipy (or
    without the private module — the differential tests in
    ``tests/test_kernels.py`` pin it against the public product) the
    kernels fall back to numpy.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # scipy.sparse is already imported
        return getattr(sys.modules[name], "csr_matvecs", None)
    try:
        scipy_spec = importlib.util.find_spec("scipy")
        roots = scipy_spec.submodule_search_locations if scipy_spec else None
        for root in roots or ():
            finder = FileFinder(
                os.path.join(root, "sparse"), (ExtensionFileLoader, EXTENSION_SUFFIXES)
            )
            spec = finder.find_spec(name)
            if spec is not None:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.pop(name, None)
                return module.csr_matvecs
    except (ImportError, OSError, AttributeError):
        pass
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError:
        return None
    return csr_matvecs


_csr_matvecs = _load_csr_matvecs()

#: Dtypes routed through the sparse-matmul fast path; anything else falls
#: back to ``np.add.reduceat``.
_MATMUL_DTYPES = (np.float32, np.float64, np.int32, np.int64)
_INDEX_DTYPES = (np.int32, np.int64)

__all__ = [
    "segment_sum",
    "segment_mean",
    "gather_pool",
    "CoalescePlan",
    "coalesce_plan",
    "coalesce_apply",
    "expand_apply",
    "coalesce_rows",
    "expand_coalesce",
    "truncate_ragged",
    "position_in_segment",
    "check_bounds",
]


# ---------------------------------------------------------------------------
# fast kernels
# ---------------------------------------------------------------------------


def _result(out: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The zeroed array a kernel accumulates into: fresh, or the caller's
    ``out`` once it is known to be exactly that array's shape and dtype."""
    if out is None:
        return np.zeros(shape, dtype=dtype)
    if (
        not isinstance(out, np.ndarray)
        or out.shape != shape
        or out.dtype != dtype
        or not out.flags.c_contiguous
        or not out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writeable C-contiguous {np.dtype(dtype)} array of "
            f"shape {shape}, got {out!r:.80}"
        )
    out.fill(0)
    return out


def _indicator_matmul(
    cols: np.ndarray,
    indptr: np.ndarray,
    data: np.ndarray,
    num_rows: int,
    out: np.ndarray | None = None,
    ones: np.ndarray | None = None,
) -> np.ndarray:
    """``S @ data`` for the CSR indicator matrix ``S[r, cols[j]] = 1``.

    One fused permute-and-reduce: row ``r`` of the result is the sum of
    ``data[cols[indptr[r]:indptr[r+1]]]`` accumulated in column order,
    i.e. exactly the scalar-accumulation order of ``np.add.at``.

    A direct call of the routine scipy's own CSR ``@`` ends in, minus the
    matrix object.  The routine reads raw pointers and checks nothing,
    so everything it assumes about layout is established here first (each
    violation a ``ValueError`` naming the argument); that ``cols`` lies in
    ``[0, len(data))`` and ``indptr`` is non-decreasing stays the caller's
    proof, as it was for the matrix constructor (:func:`check_bounds`).
    ``ones``, when given, is the caller's promise of ``len(cols)`` ones of
    ``data``'s dtype.
    """
    if (
        data.ndim != 2
        or not data.flags.c_contiguous
        or data.dtype.type not in _MATMUL_DTYPES
    ):
        raise ValueError(
            "data must be a C-contiguous 2-D float32/float64/int32/int64 "
            f"array, got {data.dtype} {data.shape}"
        )
    for name, index in (("cols", cols), ("indptr", indptr)):
        if (
            index.ndim != 1
            or index.dtype != cols.dtype
            or index.dtype.type not in _INDEX_DTYPES
            or not index.flags.c_contiguous
        ):
            raise ValueError(
                f"{name} must be a contiguous 1-D int32/int64 array, the same "
                f"dtype as cols ({cols.dtype}); got {index.dtype} {index.shape}"
            )
    if len(indptr) != num_rows + 1:
        raise ValueError(
            f"indptr must have num_rows + 1 = {num_rows + 1} entries, "
            f"got {len(indptr)}"
        )
    if indptr[0] != 0 or indptr[-1] != len(cols):
        raise ValueError(
            f"indptr must run from 0 to len(cols) = {len(cols)}, "
            f"got {indptr[0]} .. {indptr[-1]}"
        )
    if ones is None:
        ones = np.ones(len(cols), dtype=data.dtype)
    elif (
        ones.shape != cols.shape
        or ones.dtype != data.dtype
        or not ones.flags.c_contiguous
    ):
        raise ValueError(
            f"ones must be a contiguous {data.dtype} array of shape {cols.shape}, "
            f"got {ones.dtype} {ones.shape}"
        )
    out = _result(out, (num_rows, data.shape[1]), data.dtype)
    _csr_matvecs(
        num_rows, data.shape[0], data.shape[1],
        indptr, cols, ones, data.ravel(), out.ravel(),
    )
    return out


def _use_matmul(data: np.ndarray) -> bool:
    return (
        _csr_matvecs is not None
        and data.ndim == 2
        and data.dtype.type in _MATMUL_DTYPES
    )


def segment_sum(
    data: np.ndarray, offsets: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Sum ``data[offsets[i]:offsets[i+1]]`` for every segment ``i``.

    ``data`` has shape ``(total, ...)`` and ``offsets`` is the CSR offset
    array of shape ``(num_segments + 1,)`` with ``offsets[-1] == total``.
    Empty segments produce zeros.  ``out``, when given, receives the
    result and is returned.

    Fast path: the reduction is one CSR product with the indicator matrix
    whose ``indptr`` *is* ``offsets`` — no scatter, no per-segment
    dispatch, dense SIMD inner loop over the trailing dim.
    Fallback (no scipy / exotic dtype / ndim != 2): ``np.add.reduceat``
    over the non-empty segment starts (empty segments have zero width, so
    the non-empty starts partition ``data`` exactly).
    """
    data = np.asarray(data)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    num_segments = len(offsets) - 1
    if offsets[-1] != data.shape[0]:
        raise ValueError(
            f"offsets[-1]={offsets[-1]} must equal data length {data.shape[0]}"
        )
    shape = (num_segments,) + data.shape[1:]
    if data.shape[0] == 0 or num_segments == 0:
        return _result(out, shape, data.dtype)
    if _use_matmul(data):
        cols = np.arange(data.shape[0], dtype=np.int64)
        return _indicator_matmul(
            cols, offsets, np.ascontiguousarray(data), num_segments, out
        )
    out = _result(out, shape, data.dtype)
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    if nonempty.all():
        # common case: one reduceat, no mask materialization
        np.add.reduceat(data, starts, axis=0, out=out)
        return out
    if nonempty.any():
        out[nonempty] = np.add.reduceat(data, starts[nonempty], axis=0)
    return out


def segment_mean(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mean-pool each segment; empty segments produce zeros."""
    summed = segment_sum(data, offsets)
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    divisor = np.maximum(lengths, 1).astype(summed.dtype)
    return summed / divisor.reshape((-1,) + (1,) * (summed.ndim - 1))


def gather_pool(
    weight: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    *,
    check: bool = True,
    out: np.ndarray | None = None,
    ones: np.ndarray | None = None,
) -> np.ndarray:
    """Fused pooled lookup: ``segment_sum(weight[values], offsets)`` without
    the gathered-row temporary.

    ``weight`` is ``(num_rows, dim)``, ``values`` the flat lookup indices,
    ``offsets`` the CSR segment boundaries.  Returns ``(num_segments, dim)``
    pooled sums; empty segments produce zeros.  ``out`` receives the
    result; ``ones`` spares the fast path its ``len(values)`` ones.

    Fast path: one CSR product ``S @ weight`` where ``values`` are the
    column indices and ``offsets`` the ``indptr`` — the C kernel reads each
    referenced weight row once and accumulates it directly into the
    output, in the same element order as the
    gather-then-:func:`segment_sum` formulation (bit-identical results).
    Fallback (no scipy / exotic dtype): materialized gather + reduceat.

    ``check=False`` skips index validation when the caller has already
    established ``0 <= values < len(weight)`` (e.g. via a ``safe_bound``
    certificate) — the sparse kernel does *not* bounds-check on its own,
    so the default revalidates rather than risk reading out of bounds.
    """
    weight = np.asarray(weight)
    values = np.ascontiguousarray(values, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    num_segments = len(offsets) - 1
    if offsets[-1] != len(values):
        raise ValueError(
            f"offsets[-1]={offsets[-1]} must equal values length {len(values)}"
        )
    if check:
        check_bounds(values, weight.shape[0])
    if len(values) == 0 or num_segments == 0:
        return _result(out, (num_segments,) + weight.shape[1:], weight.dtype)
    if _use_matmul(weight):
        return _indicator_matmul(
            values, offsets, np.ascontiguousarray(weight), num_segments, out, ones
        )
    return segment_sum(weight[values], offsets, out)


@dataclass(frozen=True)
class CoalescePlan:
    """Precomputed grouping of an index stream for gradient coalescing.

    The sort/group half of :func:`coalesce_rows` depends only on the
    *indices* — not on the gradients — so it can be computed ahead of time
    (when the batch is prepared, before its step) and applied to gradients
    later with
    :func:`coalesce_apply` / :func:`expand_apply`.  ``rows`` are the unique
    row ids sorted ascending; ``order`` is the stable argsort of the input
    stream; ``indptr[k]:indptr[k+1]`` delimits the occurrence positions
    (into ``order``) contributing to ``rows[k]``.  A plan built with the
    stream's per-sample ``lengths`` also carries ``sample_of_sorted``, the
    sample each sorted occurrence belongs to — the indicator columns of
    :func:`expand_apply`, index data like the rest of the plan.
    """

    rows: np.ndarray  # int64, shape (k,) — unique row ids, ascending
    order: np.ndarray  # int64, shape (total,) — stable argsort of indices
    indptr: np.ndarray  # int64, shape (k + 1,) — group boundaries in order
    sample_of_sorted: np.ndarray | None = None  # int64, shape (total,)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def coalesce_plan(
    indices: np.ndarray, lengths: np.ndarray | None = None
) -> CoalescePlan:
    """Precompute the stable sort + group starts of a coalesce.

    ``lengths`` (the stream's per-sample lookup counts) makes it the plan
    of a pooled-bag backward: :func:`expand_apply` needs the sample of
    every sorted occurrence, two lookup-sized index passes that belong
    with the sort, not in each backward.

    Pure function of the index stream: two plans built from equal indices
    are bit-identical, and applying a plan reproduces
    :func:`coalesce_rows` exactly (same kernel, same accumulation order).

    Packing the stream position into the low bits of each id makes every
    key unique, so one plain (SIMD) ``sort`` *is* the stable sort by id —
    several times faster than a stable merge argsort.  Ids that are
    negative or leave no room for the position bits raise ``ValueError``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indices)
    if n == 0:
        zero = np.zeros(1, dtype=np.int64)
        empty = indices[:0]
        return CoalescePlan(empty, empty, zero, None if lengths is None else empty)
    shift = n.bit_length()
    # As uint64 a negative id is huge: one comparison rejects both.
    if int(indices.view(np.uint64).max()) >> (63 - shift):
        raise ValueError(f"cannot pack {n} ids: they must lie in [0, 2**{63 - shift})")
    key = indices << shift
    key |= np.arange(n, dtype=np.int64)
    key.sort()
    order = key & ((1 << shift) - 1)
    key >>= shift  # the sorted ids
    # group starts: positions where the sorted row id changes
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sample_of_sorted = None
    if lengths is not None:
        sample_of = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        sample_of_sorted = sample_of[order]
    return CoalescePlan(key[starts], order, np.append(starts, n), sample_of_sorted)


def coalesce_apply(
    plan: CoalescePlan, grads: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Sum duplicate-row contributions using a precomputed plan.

    ``grads[j]`` is the contribution of occurrence ``j`` of the index
    stream the plan was built from.  Bit-identical to the summed half of
    ``coalesce_rows(indices, grads)``.  ``out`` receives the
    ``(plan.num_rows, ...)`` result.
    """
    grads = np.asarray(grads)
    if not np.issubdtype(grads.dtype, np.floating):
        grads = grads.astype(np.float64)
    if plan.num_rows == 0:
        return _result(out, (0,) + grads.shape[1:], grads.dtype)
    order = np.ascontiguousarray(plan.order, dtype=np.int64)
    indptr = np.ascontiguousarray(plan.indptr, dtype=np.int64)
    if _use_matmul(grads):
        # The indicator matrix's columns are the stable-sorted occurrence
        # positions, so the product permutes *and* group-reduces in one C
        # pass — ``grads[order]`` is never materialized.
        return _indicator_matmul(
            order, indptr, np.ascontiguousarray(grads), plan.num_rows, out
        )
    out = _result(out, (plan.num_rows,) + grads.shape[1:], grads.dtype)
    return np.add.reduceat(grads[order], indptr[:-1], axis=0, out=out)


def expand_apply(
    plan: CoalescePlan,
    grad_out: np.ndarray,
    out: np.ndarray | None = None,
    ones: np.ndarray | None = None,
) -> np.ndarray:
    """Pooled-bag backward against a precomputed plan.

    Bit-identical to the summed half of ``expand_coalesce(indices,
    lengths, grad_out)`` for the index stream and per-sample lengths the
    plan was built from (``coalesce_plan(indices, lengths)``); builds
    nothing lookup-sized itself.  ``out`` receives the ``(plan.num_rows,
    dim)`` result; ``ones`` spares the fast path its one-per-lookup ones.
    """
    cols = plan.sample_of_sorted
    if cols is None:
        raise ValueError("expand_apply needs a plan built with the stream's lengths")
    grad_out = np.asarray(grad_out)
    if not np.issubdtype(grad_out.dtype, np.floating):
        grad_out = grad_out.astype(np.float64)
    if plan.num_rows == 0:
        return _result(out, (0,) + grad_out.shape[1:], grad_out.dtype)
    indptr = np.ascontiguousarray(plan.indptr, dtype=np.int64)
    if not _use_matmul(grad_out):
        # grad_out[cols] is the sorted per-lookup expansion coalesce_apply
        # would reduce
        out = _result(out, (plan.num_rows,) + grad_out.shape[1:], grad_out.dtype)
        return np.add.reduceat(grad_out[cols], indptr[:-1], axis=0, out=out)
    return _indicator_matmul(
        cols, indptr, np.ascontiguousarray(grad_out), plan.num_rows, out, ones
    )


def coalesce_rows(indices: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate row contributions; returns ``(unique_rows, summed)``.

    ``unique_rows`` is sorted ascending (matching ``np.unique``); within
    each row group the contributions are gathered in occurrence order
    (stable sort) and summed, matching the ``np.add.at`` original to
    within ~1 ULP (see the module docstring's numerical contract).

    Implemented as :func:`coalesce_plan` + :func:`coalesce_apply`, so the
    inline path and any plan-ahead caller (the training loop) share
    one implementation — equality is by construction, not by parallel
    maintenance.
    """
    plan = coalesce_plan(indices)
    return plan.rows, coalesce_apply(plan, grads)


def expand_coalesce(
    indices: np.ndarray, lengths: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused pooled-bag backward: coalesced per-row gradient sums without
    materializing the per-lookup gradient expansion.

    Equivalent to ``coalesce_rows(indices, np.repeat(grad_out, lengths,
    axis=0))`` — every lookup in sample ``i`` contributes ``grad_out[i]``
    to its embedding row — but the ``(total_lookups, dim)`` repeat is never
    built.  Fast path: ``T @ grad_out`` where ``T``'s column indices are
    the *sample* ids of the stable-sorted lookups, so the CSR kernel
    re-reads rows of the small ``(batch, dim)`` gradient in the exact
    occurrence order :func:`coalesce_rows` would have summed the expanded
    copies (bit-identical results).  Returns ``(unique_rows, summed)``.

    Implemented as :func:`coalesce_plan` + :func:`expand_apply` (see
    :func:`coalesce_rows` on why the split exists).
    """
    plan = coalesce_plan(indices, lengths)
    return plan.rows, expand_apply(plan, grad_out)


def position_in_segment(offsets: np.ndarray) -> np.ndarray:
    """For each element of a CSR layout, its 0-based rank within its segment.

    The vectorized form of "how deep into its sample is this lookup":
    ``arange(total) - repeat(starts, lengths)``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    total = int(offsets[-1])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)


def truncate_ragged(
    values: np.ndarray, offsets: np.ndarray, max_per_sample: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cap every segment at ``max_per_sample`` leading elements.

    Returns ``(new_values, new_offsets)``.  Fully vectorized: an element
    survives iff its rank within its segment is below the cap.
    """
    if max_per_sample < 1:
        raise ValueError("max_per_sample must be >= 1")
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    if len(lengths) == 0 or not len(values) or int(lengths.max()) <= max_per_sample:
        new_offsets = np.concatenate(
            [[0], np.cumsum(np.minimum(lengths, max_per_sample))]
        )
        return values, new_offsets
    new_lengths = np.minimum(lengths, max_per_sample)
    new_offsets = np.concatenate([[0], np.cumsum(new_lengths)])
    keep = position_in_segment(offsets) < max_per_sample
    return values[keep], new_offsets


def check_bounds(values: np.ndarray, upper: int, *, what: str = "indices") -> None:
    """Raise ``IndexError`` unless every value lies in ``[0, upper)``.

    Single pass: the int64 values are reinterpreted as uint64 (a free view,
    no copy), under which negatives become astronomically large, so one
    ``>= upper`` comparison catches both out-of-range directions.
    """
    if len(values) == 0:
        return
    values = np.ascontiguousarray(values, dtype=np.int64)
    if bool(np.any(values.view(np.uint64) >= np.uint64(upper))):
        raise IndexError(f"{what} out of range [0, {upper})")
