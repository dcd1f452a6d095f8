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
