"""Sparse fast-path vs naive equivalences (moved from ``tests/test_kernels.py``).

The fast sparse kernels of :mod:`repro.core.kernels` claim *bit-identical*
results vs the historical ``np.add.at`` / Python-loop implementations
(which live on as the ``naive_*`` references below).
Hypothesis generates adversarial ragged layouts — empty segments, empty
batches, duplicate indices — and we assert exact equality (stronger than
the 1e-12 budget the contract allows).  The embedding tables call these
kernels under every backend, so they are held against the naive
references here and not per backend.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SparseGrad, kernels


# ---------------------------------------------------------------------------
# naive references: the original (pre-optimization) implementations
# ---------------------------------------------------------------------------


def naive_segment_sum(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The original ``np.add.at`` pooling kernel."""
    data = np.asarray(data)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    out = np.zeros((len(lengths),) + data.shape[1:], dtype=data.dtype)
    if data.shape[0]:
        sample_of = np.repeat(np.arange(len(lengths)), lengths)
        np.add.at(out, sample_of, data)
    return out


def naive_coalesce_rows(
    indices: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The original ``np.unique`` + ``np.add.at`` coalesce."""
    rows, inverse = np.unique(np.asarray(indices, dtype=np.int64), return_inverse=True)
    grads = np.asarray(grads, dtype=np.float64)
    summed = np.zeros((len(rows),) + grads.shape[1:], dtype=np.float64)
    np.add.at(summed, inverse, grads)
    return rows, summed


def naive_truncate_ragged(
    values: np.ndarray, offsets: np.ndarray, max_per_sample: int
) -> tuple[np.ndarray, np.ndarray]:
    """The original per-sample Python-loop truncation."""
    if max_per_sample < 1:
        raise ValueError("max_per_sample must be >= 1")
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.minimum(np.diff(offsets), max_per_sample)
    new_offsets = np.concatenate([[0], np.cumsum(lengths)])
    keep = np.zeros(len(values), dtype=bool)
    for i in range(len(lengths)):
        start = offsets[i]
        keep[start : start + lengths[i]] = True
    return values[keep], new_offsets


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def ragged_layout(draw):
    """(data, offsets): a CSR ragged batch with possibly-empty segments."""
    num_segments = draw(st.integers(min_value=0, max_value=10))
    lengths = draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=num_segments,
            max_size=num_segments,
        )
    )
    offsets = np.concatenate([[0], np.cumsum(np.array(lengths, dtype=np.int64))])
    total = int(offsets[-1])
    dim = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    data = np.random.default_rng(seed).standard_normal((total, dim))
    return data, offsets.astype(np.int64)


@st.composite
def duplicate_rows(draw):
    """(indices, grads) with heavy row duplication for coalesce tests."""
    n = draw(st.integers(min_value=0, max_value=40))
    indices = np.array(
        draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)), dtype=np.int64
    )
    dim = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    grads = np.random.default_rng(seed).standard_normal((n, dim))
    return indices, grads


# ---------------------------------------------------------------------------
# kernel equivalence (exact)
# ---------------------------------------------------------------------------


class TestSegmentSumEquivalence:
    @given(ragged_layout())
    @settings(max_examples=60, deadline=None)
    def test_segment_sum_matches_add_at_exactly(self, layout):
        data, offsets = layout
        fast = kernels.segment_sum(data, offsets)
        naive = naive_segment_sum(data, offsets)
        assert fast.dtype == naive.dtype
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-12)

    @given(ragged_layout())
    @settings(max_examples=30, deadline=None)
    def test_float32_segments_exact_vs_naive(self, layout):
        data, offsets = layout
        data32 = data.astype(np.float32)
        fast = kernels.segment_sum(data32, offsets)
        naive = naive_segment_sum(data32, offsets)
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, naive, rtol=1e-6, atol=1e-6)


class TestCoalesceEquivalence:
    @given(duplicate_rows())
    @settings(max_examples=60, deadline=None)
    def test_matches_unique_add_at_exactly(self, case):
        indices, grads = case
        rows_f, summed_f = kernels.coalesce_rows(indices, grads)
        rows_n, summed_n = naive_coalesce_rows(indices, grads)
        assert np.array_equal(rows_f, rows_n)
        np.testing.assert_allclose(summed_f, summed_n, rtol=1e-12, atol=1e-12)


class TestOutParameterAgainstNaive:
    """``out=`` changes where a result lands, never what it is: each kernel
    writing into a caller's (dirty) buffer still meets the naive reference
    at the pinned 1e-12 — float, float32 and integer data, duplicate-heavy
    Zipf ids."""

    @given(
        ragged_layout(),
        st.sampled_from([np.float64, np.float32, np.int64]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_sum(self, layout, dtype, give_out):
        data, offsets = layout
        data = (data * 8).astype(dtype)
        out = np.full((len(offsets) - 1, data.shape[1]), 9, dtype=dtype) if give_out else None
        fast = kernels.segment_sum(data, offsets, out=out)
        naive = naive_segment_sum(data, offsets)
        assert fast.dtype == naive.dtype and (out is None or fast is out)
        tol = 1e-6 if dtype is np.float32 else 1e-12
        np.testing.assert_allclose(fast, naive, rtol=tol, atol=tol)

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([np.float64, np.int64]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_coalesce_apply(self, n, seed, dtype, give_out):
        rng = np.random.default_rng(seed)
        indices = (rng.zipf(1.2, size=n) % 9).astype(np.int64)
        grads = (rng.standard_normal((n, 3)) * 8).astype(dtype)
        plan = kernels.coalesce_plan(indices)
        # integer contributions are summed as float64, as without out=
        out = np.full((plan.num_rows, 3), 9.0) if give_out else None
        summed = kernels.coalesce_apply(plan, grads, out=out)
        rows_n, summed_n = naive_coalesce_rows(indices, grads)
        assert np.array_equal(plan.rows, rows_n) and (out is None or summed is out)
        np.testing.assert_allclose(summed, summed_n, rtol=1e-12, atol=1e-12)


float_dtypes = st.sampled_from([np.float64, np.float32])


class TestGatherPoolEquivalence:
    """The fused forward: ``S @ weight`` vs materialized gather + pool."""

    @given(ragged_layout(), st.integers(min_value=0, max_value=2**31 - 1), float_dtypes)
    @settings(max_examples=60, deadline=None)
    def test_matches_gather_then_segment_sum(self, layout, seed, dtype):
        data, offsets = layout
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((9, 3)).astype(dtype)
        values = rng.integers(0, 9, size=int(offsets[-1]))
        fused = kernels.gather_pool(weight, values, offsets)
        assert fused.dtype == weight.dtype
        # bit-identical to the unfused fast kernel and to the naive reference
        np.testing.assert_array_equal(fused, kernels.segment_sum(weight[values], offsets))
        np.testing.assert_array_equal(
            fused, naive_segment_sum(weight[values], offsets)
        )


class TestExpandCoalesceEquivalence:
    """The fused backward: ``T @ grad_out`` vs repeat + coalesce."""

    @given(ragged_layout(), st.integers(min_value=0, max_value=2**31 - 1), float_dtypes)
    @settings(max_examples=60, deadline=None)
    def test_matches_repeat_then_coalesce(self, layout, seed, dtype):
        _, offsets = layout
        lengths = np.diff(offsets)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 6, size=int(offsets[-1]))
        grad_out = rng.standard_normal((len(lengths), 3)).astype(dtype)
        rows_f, summed_f = kernels.expand_coalesce(values, lengths, grad_out)
        per_lookup = np.repeat(grad_out, lengths, axis=0)
        rows_u, summed_u = kernels.coalesce_rows(values, per_lookup)
        rows_n, summed_n = naive_coalesce_rows(values, per_lookup)
        assert np.array_equal(rows_f, rows_u) and np.array_equal(rows_f, rows_n)
        assert summed_f.dtype == dtype
        if dtype is np.float32:
            # naive_coalesce_rows sums in float64; the exact oracle here is in float32
            summed_n = np.zeros(summed_n.shape, dtype=dtype)
            np.add.at(summed_n, np.searchsorted(rows_n, values), per_lookup)
        np.testing.assert_array_equal(summed_f, summed_u)  # bit-identical
        np.testing.assert_array_equal(summed_f, summed_n)


class TestTruncateEquivalence:
    @given(ragged_layout(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_loop(self, layout, cap):
        data, offsets = layout
        values = np.arange(int(offsets[-1]), dtype=np.int64)
        fast_v, fast_o = kernels.truncate_ragged(values, offsets, cap)
        naive_v, naive_o = naive_truncate_ragged(values, offsets, cap)
        assert np.array_equal(fast_v, naive_v)
        assert np.array_equal(fast_o, naive_o)


class TestSparseGradCoalesce:
    def test_matches_historic_semantics(self):
        indices = np.array([3, 1, 3, 3, 1])
        grads = np.random.default_rng(0).standard_normal((5, 4))
        grad = SparseGrad.coalesce(indices, grads)
        rows_n, summed_n = naive_coalesce_rows(indices, grads)
        assert np.array_equal(grad.rows, rows_n)
        np.testing.assert_allclose(grad.values, summed_n, rtol=1e-12, atol=1e-12)
        assert grad.nnz_rows == 2
