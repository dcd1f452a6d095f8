"""Unit tests for repro.core.kernels and the batched embedding path.

The hypothesis-driven naive-vs-fast *equivalence* tests that historically
lived here moved to the parametrized backend conformance suite
(``tests/conformance/test_conformance_sparse.py``).  What remains is
kernel-internal: edge-case handling (empty segments, bounds checks,
dtype preservation), the batched embedding forward/backward bookkeeping,
safe-bound certificates, and compute-dtype propagation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DLRM,
    Adagrad,
    EmbeddingBagCollection,
    EmbeddingTable,
    InteractionType,
    MLPSpec,
    ModelConfig,
    PoolingType,
    RaggedIndices,
    TableSpec,
    Trainer,
    hash_raw_ids,
    kernels,
    uniform_tables,
)
from repro.data import SyntheticDataGenerator

from helpers import make_batch


# ---------------------------------------------------------------------------
# kernel edge cases
# ---------------------------------------------------------------------------


class TestSegmentOps:
    def test_empty_segments_produce_zeros(self):
        data = np.arange(6, dtype=np.float64).reshape(3, 2)
        offsets = np.array([0, 0, 2, 2, 3, 3, 3])
        out = kernels.segment_sum(data, offsets)
        assert out.shape == (6, 2)
        assert np.array_equal(out[0], [0, 0])
        assert np.array_equal(out[1], data[0] + data[1])
        assert np.array_equal(out[3], data[2])
        assert np.all(out[[2, 4, 5]] == 0)

    def test_segment_mean_divides_by_length(self):
        data = np.array([[2.0], [4.0], [9.0]])
        offsets = np.array([0, 2, 2, 3])
        out = kernels.segment_mean(data, offsets)
        assert np.array_equal(out, [[3.0], [0.0], [9.0]])

    def test_offsets_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must equal data length"):
            kernels.segment_sum(np.zeros((3, 2)), np.array([0, 1]))


def _pack_bound(n: int) -> int:
    """Smallest id ``coalesce_plan`` cannot pack beside ``n`` positions."""
    return 1 << (63 - n.bit_length())


@st.composite
def _id_streams(draw):
    """Index streams of the shapes the sort must get right: uniform,
    Zipf-skewed (long runs of duplicates), all-equal, already sorted, and
    ids right up to the packing bound."""
    n = draw(st.integers(min_value=0, max_value=200))
    kind = draw(st.sampled_from(["uniform", "zipf", "equal", "sorted", "wide"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if kind == "zipf":
        ids = rng.zipf(1.3, size=n) % 1000
    elif kind == "equal":
        ids = np.full(n, rng.integers(0, 1000))
    elif kind == "wide":
        ids = rng.integers(0, _pack_bound(n), size=n)
    else:
        ids = rng.integers(0, 50, size=n)
    ids = ids.astype(np.int64)
    return np.sort(ids) if kind == "sorted" else ids


@st.composite
def _indicator_cases(draw):
    """``(cols, indptr, data, num_rows)`` of the shapes the raw kernel must
    get right: empty stream, empty segments, a single row, duplicate-heavy
    Zipf columns; float32 / float64 / int32 / int64 data."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    num_rows = draw(st.integers(min_value=0, max_value=12))
    lengths = rng.integers(0, 9, size=num_rows) * rng.integers(0, 2, size=num_rows)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    n_data = draw(st.integers(min_value=1, max_value=40))
    nnz = int(indptr[-1])
    if draw(st.booleans()):
        cols = rng.zipf(1.3, size=nnz) % n_data
    else:
        cols = rng.integers(0, n_data, size=nnz)
    dim = draw(st.integers(min_value=1, max_value=5))
    data = (rng.standard_normal((n_data, dim)) * 8).astype(dtype)
    return cols.astype(np.int64), indptr, data, num_rows


def _public_product(cols, indptr, data, num_rows):
    """The same product through scipy's public API — what the kernels
    called until they stopped building the matrix."""
    import scipy.sparse

    ones = np.ones(len(cols), dtype=data.dtype)
    matrix = scipy.sparse.csr_matrix(
        (ones, cols, indptr), shape=(num_rows, data.shape[0])
    )
    return matrix @ data


class TestIndicatorKernel:
    """The direct ``csr_matvecs`` call against ``csr_matrix(...) @ data``.

    Also the tripwire for a scipy release that moves or changes the
    private routine: every case here would fail, not crash."""

    @settings(max_examples=120, deadline=None)
    @given(_indicator_cases(), st.booleans())
    @example(
        (np.empty(0, np.int64), np.zeros(1, np.int64), np.ones((3, 2), np.float32), 0),
        True,
    )
    @example(
        (np.empty(0, np.int64), np.zeros(4, np.int64), np.ones((3, 2)), 3), False
    )
    @example((np.array([2, 2, 2, 0]), np.array([0, 4]), np.arange(6).reshape(3, 2), 1), True)
    def test_equals_public_product_bit_for_bit(self, case, give_out):
        cols, indptr, data, num_rows = case
        want = _public_product(cols, indptr, data, num_rows)
        out = ones = None
        if give_out:
            # stale contents must not leak into the result
            out = np.full((num_rows, data.shape[1]), 7, dtype=data.dtype)
            ones = np.ones(len(cols), dtype=data.dtype)
        got = kernels._indicator_matmul(cols, indptr, data, num_rows, out, ones)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        if give_out:
            assert got is out

    @settings(max_examples=60, deadline=None)
    @given(_indicator_cases(), st.booleans())
    def test_public_kernels_equal_public_product(self, case, give_out):
        """gather_pool / segment_sum / coalesce_apply / expand_apply are
        that product with the right index arrays, with and without out=."""
        cols, indptr, data, num_rows = case
        width = data.shape[1]

        def call(kernel, *args, rows, dtype):
            out = np.full((rows, width), 3, dtype=dtype) if give_out else None
            got = kernel(*args, out=out)
            assert out is None or got is out
            return got

        np.testing.assert_array_equal(
            call(kernels.gather_pool, data, cols, indptr, rows=num_rows, dtype=data.dtype),
            _public_product(cols, indptr, data, num_rows),
        )
        stream = data[cols]  # one row per lookup
        np.testing.assert_array_equal(
            call(kernels.segment_sum, stream, indptr, rows=num_rows, dtype=data.dtype),
            _public_product(np.arange(len(cols)), indptr, stream, num_rows),
        )
        plan = kernels.coalesce_plan(cols)
        grads = stream.astype(np.float64 if data.dtype.kind == "i" else data.dtype)
        merged = call(
            kernels.coalesce_apply, plan, grads, rows=plan.num_rows, dtype=grads.dtype
        )
        assert merged.shape == (plan.num_rows, width)
        if plan.num_rows:
            np.testing.assert_array_equal(
                merged, _public_product(plan.order, plan.indptr, grads, plan.num_rows)
            )
        lengths = np.diff(indptr)
        grad_out = np.arange(num_rows * width).reshape(num_rows, width).astype(grads.dtype)
        bag_plan = kernels.coalesce_plan(cols, lengths)
        np.testing.assert_array_equal(
            call(
                kernels.expand_apply, bag_plan, grad_out,
                rows=plan.num_rows, dtype=grads.dtype,
            ),
            kernels.coalesce_apply(plan, np.repeat(grad_out, lengths, axis=0)),
        )

    # One case per thing the raw routine would otherwise read or write
    # through a bad pointer.
    _COLS = np.array([0, 2, 1], dtype=np.int64)
    _INDPTR = np.array([0, 1, 3], dtype=np.int64)
    _DATA = np.ones((3, 4), dtype=np.float32)

    @pytest.mark.parametrize(
        "override, match",
        [
            (dict(data=np.ones((4, 3), np.float32).T), "data must be a C-contiguous"),
            (dict(data=np.ones((3, 4), np.float16)), "data must be a C-contiguous"),
            (dict(data=np.ones(3, np.float32)), "data must be a C-contiguous"),
            (dict(out=np.zeros((2, 4), np.float64)), "out must be a writeable"),
            (dict(out=np.zeros((3, 4), np.float32)), "out must be a writeable"),
            (dict(out=np.zeros((4, 2), np.float32).T), "out must be a writeable"),
            (dict(cols=np.array([0, 2, 1], np.int32)), "indptr must be a contiguous"),
            (dict(cols=np.array([0.0, 2.0, 1.0])), "cols must be a contiguous"),
            (dict(cols=np.arange(6, dtype=np.int64)[::2]), "cols must be a contiguous"),
            (dict(indptr=np.array([0, 1, 2, 3], np.int64)), "num_rows \\+ 1"),
            (dict(indptr=np.array([0, 1, 2], np.int64)), "from 0 to len\\(cols\\)"),
            (dict(indptr=np.array([1, 1, 3], np.int64)), "from 0 to len\\(cols\\)"),
            (dict(ones=np.ones(3, np.float64)), "ones must be a contiguous"),
            (dict(ones=np.ones(2, np.float32)), "ones must be a contiguous"),
        ],
    )
    def test_rejects_what_the_routine_would_not_check(self, override, match):
        args = dict(
            cols=self._COLS, indptr=self._INDPTR, data=self._DATA, num_rows=2,
            out=None, ones=None,
        )
        args.update(override)
        with pytest.raises(ValueError, match=match):
            kernels._indicator_matmul(**args)

    def test_read_only_out_rejected(self):
        out = np.zeros((2, 4), dtype=np.float32)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="out must be a writeable"):
            kernels.gather_pool(self._DATA, self._COLS, self._INDPTR, out=out)

    @pytest.mark.parametrize("give_out", [False, True])
    def test_without_the_routine_the_reduceat_fallback_serves(
        self, monkeypatch, give_out
    ):
        """No ``scipy.sparse._sparsetools``: the one fallback, not a second
        scipy path — same values, ``out=`` still honoured."""
        rng = np.random.default_rng(5)
        weight = rng.standard_normal((30, 4))
        values = rng.integers(0, 30, size=50)
        offsets = np.array([0, 0, 20, 20, 50])
        lengths = np.diff(offsets)
        grad_out = rng.standard_normal((4, 4))
        plan = kernels.coalesce_plan(values, lengths)
        want = (
            kernels.gather_pool(weight, values, offsets),
            kernels.expand_apply(plan, grad_out),
        )
        monkeypatch.setattr(kernels, "_csr_matvecs", None)
        outs = (np.ones((4, 4)), np.ones((plan.num_rows, 4))) if give_out else (None, None)
        got = (
            kernels.gather_pool(weight, values, offsets, out=outs[0]),
            kernels.expand_apply(plan, grad_out, out=outs[1]),
        )
        for g, w, o in zip(got, want, outs):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
            assert o is None or g is o


class TestCoalesce:
    def test_deterministic_across_runs(self):
        # The cache + parallel-sweep contract needs run-to-run bit identity.
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 50, size=500)
        grads = rng.standard_normal((500, 8))
        first = kernels.coalesce_rows(indices, grads)
        second = kernels.coalesce_rows(indices.copy(), grads.copy())
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_preserves_float32(self):
        rows, summed = kernels.coalesce_rows(
            np.array([1, 1, 2]), np.ones((3, 2), dtype=np.float32)
        )
        assert summed.dtype == np.float32

    def test_empty(self):
        rows, summed = kernels.coalesce_rows(
            np.empty(0, dtype=np.int64), np.empty((0, 3))
        )
        assert len(rows) == 0 and summed.shape == (0, 3)

    @settings(max_examples=60, deadline=None)
    @given(_id_streams())
    @example(np.empty(0, dtype=np.int64))
    @example(np.array([7]))
    @example(np.full(9, 3))
    @example(np.arange(33))
    @example(np.array([0, _pack_bound(3) - 1, 5]))  # largest packable id
    def test_plan_equals_stable_argsort_construction(self, ids):
        """The packed-key sort is the stable argsort, field for field."""
        plan = kernels.coalesce_plan(ids)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))  # ids >= 0
        expected = (sorted_ids[starts], order, np.concatenate([starts, [len(ids)]]))
        for got, want in zip((plan.rows, plan.order, plan.indptr), expected):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 3, 4, 1000])
    def test_plan_rejects_ids_it_cannot_pack(self, n):
        ids = np.zeros(n, dtype=np.int64)
        ids[-1] = _pack_bound(n) - 1
        assert kernels.coalesce_plan(ids).rows[-1] == _pack_bound(n) - 1
        for bad in (_pack_bound(n), -1, np.iinfo(np.int64).min):
            ids[-1] = bad
            with pytest.raises(ValueError, match="cannot pack"):
                kernels.coalesce_plan(ids)


class TestGatherPool:
    """Edge cases of the fused forward (``S @ weight``)."""

    def test_bounds_checked_by_default(self):
        weight = np.zeros((4, 2))
        with pytest.raises(IndexError, match="out of range"):
            kernels.gather_pool(weight, np.array([0, 4]), np.array([0, 2]))
        with pytest.raises(IndexError, match="out of range"):
            kernels.gather_pool(weight, np.array([0, -1]), np.array([0, 2]))

    def test_offsets_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must equal values length"):
            kernels.gather_pool(np.zeros((4, 2)), np.array([0, 1]), np.array([0, 1]))

    def test_empty_values_produce_zeros(self):
        out = kernels.gather_pool(
            np.ones((4, 2)), np.empty(0, dtype=np.int64), np.array([0, 0, 0])
        )
        assert out.shape == (2, 2) and np.all(out == 0)

    def test_float32_weight_preserved(self):
        weight = np.ones((4, 2), dtype=np.float32)
        out = kernels.gather_pool(weight, np.array([1, 2]), np.array([0, 2]))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [[2.0, 2.0]])


class TestExpandCoalesce:
    """Edge cases of the fused backward (``T @ grad_out``)."""

    def test_empty(self):
        rows, summed = kernels.expand_coalesce(
            np.empty(0, dtype=np.int64), np.array([0, 0]), np.zeros((2, 3))
        )
        assert len(rows) == 0 and summed.shape == (0, 3)

    def test_float32_preserved(self):
        rows, summed = kernels.expand_coalesce(
            np.array([3, 3, 1]),
            np.array([2, 1]),
            np.ones((2, 2), dtype=np.float32),
        )
        assert summed.dtype == np.float32
        assert np.array_equal(rows, [1, 3])
        np.testing.assert_array_equal(summed, [[1.0, 1.0], [2.0, 2.0]])


class TestTruncate:
    def test_noop_when_under_cap(self):
        values = np.array([1, 2, 3])
        offsets = np.array([0, 2, 3])
        out_v, out_o = kernels.truncate_ragged(values, offsets, 5)
        assert out_v is values  # fast path: no copy
        assert np.array_equal(out_o, offsets)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            kernels.truncate_ragged(np.array([1]), np.array([0, 1]), 0)

    def test_position_in_segment(self):
        offsets = np.array([0, 3, 3, 5])
        assert np.array_equal(
            kernels.position_in_segment(offsets), [0, 1, 2, 0, 1]
        )


class TestCheckBounds:
    def test_in_range_passes(self):
        kernels.check_bounds(np.array([0, 4, 9]), 10)

    def test_negative_caught(self):
        with pytest.raises(IndexError, match="out of range"):
            kernels.check_bounds(np.array([0, -1]), 10)

    def test_overflow_caught(self):
        with pytest.raises(IndexError, match="out of range"):
            kernels.check_bounds(np.array([10]), 10)

    def test_empty_passes(self):
        kernels.check_bounds(np.empty(0, dtype=np.int64), 1)


# ---------------------------------------------------------------------------
# embedding integration: batched path, safe_bound, dtype
# ---------------------------------------------------------------------------


def _ragged(per_sample, **kw):
    return RaggedIndices.from_lists(
        [np.array(s, dtype=np.int64) for s in per_sample], **kw
    )


class TestBatchedForward:
    def _shared_collection(self, pooling=PoolingType.SUM):
        specs = (TableSpec("shared", hash_size=30, dim=4),)
        mapping = {"f_a": "shared", "f_b": "shared", "f_c": "shared"}
        return EmbeddingBagCollection(
            specs, np.random.default_rng(0), pooling=pooling, feature_to_table=mapping
        )

    def test_fused_gather_matches_per_feature_forward(self):
        coll = self._shared_collection()
        ref = self._shared_collection()
        batch = {
            "f_a": _ragged([[1, 2], [3]]),
            "f_b": _ragged([[], [4, 4, 5]]),
            "f_c": _ragged([[29], []]),
        }
        fused = coll.forward(batch)
        table = ref.tables["shared"]
        for name in ("f_a", "f_b", "f_c"):
            expected = table.forward(batch[name])
            assert np.array_equal(fused[name], expected)

    def test_backward_bookkeeping_with_shared_table(self):
        coll = self._shared_collection()
        batch = {
            "f_a": _ragged([[1], [2]]),
            "f_b": _ragged([[1], [3]]),
            "f_c": _ragged([[2, 2], []]),
        }
        coll.forward(batch)
        grads = {
            name: np.full((2, 4), float(i + 1))
            for i, name in enumerate(("f_a", "f_b", "f_c"))
        }
        coll.backward(grads)
        grad = coll.tables["shared"].pop_grad()
        # rows touched: 1 (f_a + f_b), 2 (f_a + 2x f_c), 3 (f_b)
        assert np.array_equal(grad.rows, [1, 2, 3])
        assert np.array_equal(grad.values[0], np.full(4, 1.0 + 2.0))
        assert np.array_equal(grad.values[1], np.full(4, 1.0 + 3.0 + 3.0))
        assert np.array_equal(grad.values[2], np.full(4, 2.0))

    def test_mean_pooling_fused_matches_serial(self):
        coll = self._shared_collection(pooling=PoolingType.MEAN)
        ref = self._shared_collection(pooling=PoolingType.MEAN)
        batch = {
            "f_a": _ragged([[1, 2, 3], []]),
            "f_b": _ragged([[4], [5, 6]]),
            "f_c": _ragged([[], []]),
        }
        fused = coll.forward(batch)
        for name, ind in batch.items():
            assert np.array_equal(fused[name], ref.tables["shared"].forward(ind))


class TestSafeBound:
    def test_out_of_range_raises_without_certificate(self):
        table = EmbeddingTable(TableSpec("t", hash_size=8, dim=2), np.random.default_rng(0))
        with pytest.raises(IndexError, match="table t"):
            table.forward(_ragged([[8]]))
        with pytest.raises(IndexError):
            table.forward(_ragged([[-1]]))

    def test_certificate_skips_rescan(self):
        table = EmbeddingTable(TableSpec("t", hash_size=8, dim=2), np.random.default_rng(0))
        ind = _ragged([[0, 7], [3]], safe_bound=8)
        out = table.forward(ind)
        assert out.shape == (2, 2)

    def test_insufficient_certificate_still_checked(self):
        # safe_bound larger than the table: the certificate proves nothing,
        # so the defensive scan must still run and catch the overflow.
        table = EmbeddingTable(TableSpec("t", hash_size=8, dim=2), np.random.default_rng(0))
        with pytest.raises(IndexError):
            table.forward(_ragged([[9]], safe_bound=16))

    def test_hash_raw_ids_output_is_certified_range(self):
        hashed = hash_raw_ids(np.arange(1000), 17)
        assert hashed.min() >= 0 and hashed.max() < 17

    def test_truncate_propagates_certificate(self):
        ind = _ragged([[1, 2, 3, 4]], safe_bound=50)
        assert ind.truncate(2).safe_bound == 50

    def test_synthetic_batches_carry_certificates(self, tiny_config, tiny_generator):
        batch = tiny_generator.batch(8)
        for spec in tiny_config.tables:
            ind = batch.sparse[spec.name]
            assert ind.safe_bound is not None
            assert ind.safe_bound <= spec.hash_size


class TestComputeDtype:
    def _config(self, dtype):
        return ModelConfig(
            name=f"dtype-{dtype}",
            num_dense=6,
            tables=uniform_tables(3, 50, dim=4, mean_lookups=2.0),
            bottom_mlp=MLPSpec((8, 4)),
            top_mlp=MLPSpec((6,)),
            interaction=InteractionType.DOT,
            compute_dtype=dtype,
        )

    def test_float32_propagates_to_parameters_and_activations(self):
        config = self._config("float32")
        model = DLRM(config, rng=0)
        assert model.dtype == np.float32
        for param in model.dense_parameters():
            assert param.value.dtype == np.float32
        for table in model.embedding_tables():
            assert table.dtype == np.float32
        batch = make_batch(config, 16)
        logits = model.forward(batch)
        assert logits.dtype == np.float32

    def test_float32_sparse_grads_are_float32(self):
        config = self._config("float32")
        model = DLRM(config, rng=0)
        batch = make_batch(config, 16)
        trainer = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        loss = trainer.train_step(batch)
        assert np.isfinite(loss)

    def test_float32_training_converges(self):
        config = self._config("float32")
        gen = SyntheticDataGenerator(config, rng=3, seed_teacher=True)
        model = DLRM(config, rng=0)
        trainer = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        result = trainer.train(gen.batches(64), max_steps=60)
        assert result.smoothed_final_loss < result.loss_history[0]

    def test_float64_default_unchanged(self):
        config = self._config("float64")
        model = DLRM(config, rng=0)
        assert model.dtype == np.float64
        assert model.forward(make_batch(config, 8)).dtype == np.float64

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="compute_dtype"):
            self._config("float16")

    def test_float32_close_to_float64(self):
        c64, c32 = self._config("float64"), self._config("float32")
        m64, m32 = DLRM(c64, rng=0), DLRM(c32, rng=0)
        b64, b32 = make_batch(c64, 32), make_batch(c32, 32)
        out64 = m64.forward(b64)
        out32 = m32.forward(b32)
        np.testing.assert_allclose(out32, out64, rtol=2e-4, atol=2e-4)
