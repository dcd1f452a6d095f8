"""Tests for repro.core.embedding: ragged batches, lookups, sparse grads."""

import numpy as np
import pytest

from repro.core import (
    EmbeddingBagCollection,
    EmbeddingTable,
    PoolingType,
    RaggedIndices,
    SparseGrad,
    TableSpec,
    Workspace,
    embedding,
    hash_raw_ids,
    uniform_tables,
)
from repro.tiering import TieredEmbeddingTable, TieredStoreConfig

from helpers import numeric_grad_scalar, simple_ragged


class TestHashRawIds:
    def test_range(self, rng):
        ids = rng.integers(0, 2**40, size=1000)
        hashed = hash_raw_ids(ids, 97)
        assert hashed.min() >= 0 and hashed.max() < 97

    def test_deterministic(self):
        ids = np.arange(100)
        np.testing.assert_array_equal(hash_raw_ids(ids, 50), hash_raw_ids(ids, 50))

    def test_collisions_exist_for_small_hash(self):
        hashed = hash_raw_ids(np.arange(1000), 10)
        assert len(np.unique(hashed)) == 10

    def test_spreads_reasonably(self):
        hashed = hash_raw_ids(np.arange(100000), 100)
        counts = np.bincount(hashed, minlength=100)
        assert counts.min() > 500 and counts.max() < 2000

    def test_rejects_zero_hash_size(self):
        with pytest.raises(ValueError):
            hash_raw_ids(np.array([1]), 0)


class TestRaggedIndices:
    def test_from_lists(self):
        r = simple_ragged([[1, 2], [], [3]])
        assert r.batch_size == 3
        assert r.total_lookups == 3
        np.testing.assert_array_equal(r.lengths(), [2, 0, 1])
        np.testing.assert_array_equal(r.sample(0), [1, 2])
        np.testing.assert_array_equal(r.sample(1), [])

    def test_empty_batch(self):
        r = RaggedIndices(values=np.empty(0, dtype=np.int64), offsets=np.array([0]))
        assert r.batch_size == 0

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            RaggedIndices(values=np.array([1, 2]), offsets=np.array([0, 1]))
        with pytest.raises(ValueError):
            RaggedIndices(values=np.array([1, 2]), offsets=np.array([1, 2]))
        with pytest.raises(ValueError):
            RaggedIndices(values=np.array([1, 2]), offsets=np.array([0, 2, 1]))

    def test_truncate(self):
        r = simple_ragged([[1, 2, 3, 4], [5], [6, 7, 8]])
        t = r.truncate(2)
        np.testing.assert_array_equal(t.lengths(), [2, 1, 2])
        np.testing.assert_array_equal(t.sample(0), [1, 2])
        np.testing.assert_array_equal(t.sample(2), [6, 7])

    def test_truncate_noop_when_under_limit(self):
        r = simple_ragged([[1], [2, 3]])
        t = r.truncate(5)
        np.testing.assert_array_equal(t.values, r.values)

    def test_truncate_rejects_zero(self):
        with pytest.raises(ValueError):
            simple_ragged([[1]]).truncate(0)


class TestSparseGrad:
    def test_coalesce_sums_duplicates(self):
        idx = np.array([3, 1, 3])
        grads = np.array([[1.0, 0.0], [0.5, 0.5], [2.0, 1.0]])
        g = SparseGrad.coalesce(idx, grads)
        np.testing.assert_array_equal(g.rows, [1, 3])
        np.testing.assert_allclose(g.values, [[0.5, 0.5], [3.0, 1.0]])
        assert g.nnz_rows == 2


class TestEmbeddingTable:
    def _table(self, rng, pooling=PoolingType.SUM, truncation=None, hash_size=20, dim=3):
        spec = TableSpec("t", hash_size=hash_size, dim=dim, mean_lookups=2, truncation=truncation)
        return EmbeddingTable(spec, rng, pooling=pooling)

    def test_sum_pooling_matches_manual(self, rng):
        table = self._table(rng)
        r = simple_ragged([[0, 1], [5]])
        out = table.forward(r)
        np.testing.assert_allclose(out[0], table.weight[0] + table.weight[1])
        np.testing.assert_allclose(out[1], table.weight[5])

    def test_mean_pooling(self, rng):
        table = self._table(rng, pooling=PoolingType.MEAN)
        r = simple_ragged([[0, 1], [5]])
        out = table.forward(r)
        np.testing.assert_allclose(out[0], (table.weight[0] + table.weight[1]) / 2)

    def test_empty_sample_gives_zero_vector(self, rng):
        table = self._table(rng)
        out = table.forward(simple_ragged([[], [3]]))
        np.testing.assert_array_equal(out[0], np.zeros(3))

    def test_out_of_range_rejected(self, rng):
        table = self._table(rng, hash_size=5)
        with pytest.raises(IndexError):
            table.forward(simple_ragged([[7]]))

    def test_truncation_applied_in_forward(self, rng):
        table = self._table(rng, truncation=1)
        r = simple_ragged([[0, 1]])
        out = table.forward(r)
        np.testing.assert_allclose(out[0], table.weight[0])

    def test_backward_scatters_sparse_grad(self, rng):
        table = self._table(rng)
        r = simple_ragged([[0, 1], [1]])
        table.forward(r)
        table.backward(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        g = table.pop_grad()
        np.testing.assert_array_equal(g.rows, [0, 1])
        np.testing.assert_allclose(g.values[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(g.values[1], [1.0, 2.0, 0.0])  # summed

    def test_backward_numeric_gradient(self, rng):
        table = self._table(rng)
        r = simple_ragged([[0, 2], [2, 4]])
        coeff = rng.normal(size=(2, 3))

        def loss():
            return float((table.forward(r) * coeff).sum())

        expected = numeric_grad_scalar(loss, table.weight)
        table.zero_grad()
        table.forward(r)
        table.backward(coeff)
        g = table.pop_grad()
        dense = np.zeros_like(table.weight)
        dense[g.rows] = g.values
        np.testing.assert_allclose(dense, expected, rtol=1e-5, atol=1e-8)

    def test_mean_pooling_numeric_gradient(self, rng):
        table = self._table(rng, pooling=PoolingType.MEAN)
        r = simple_ragged([[0, 2, 3], [4]])
        coeff = rng.normal(size=(2, 3))

        def loss():
            return float((table.forward(r) * coeff).sum())

        expected = numeric_grad_scalar(loss, table.weight)
        table.zero_grad()
        table.forward(r)
        table.backward(coeff)
        g = table.pop_grad()
        dense = np.zeros_like(table.weight)
        dense[g.rows] = g.values
        np.testing.assert_allclose(dense, expected, rtol=1e-5, atol=1e-8)

    def test_backward_without_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            self._table(rng).backward(np.zeros((1, 3)))

    def test_inference_plan_carries_no_grad_plans(self, rng):
        table = self._table(rng)
        features = [simple_ragged([[0, 1], [5]]), simple_ragged([[2], [2, 3]])]
        plan = table.plan_forward(features, training=False)
        assert plan.grad_plans is None
        with pytest.raises(RuntimeError, match="inference plan"):
            plan.touched_rows()
        trained = table.forward_batched(features, training=True)
        table._saved.clear()
        served = table.forward_batched(features, training=False, plan=plan)
        assert not table._saved
        for a, b in zip(served, trained):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", [0.5, 1, 2.5])
    def test_blocked_init_equals_one_shot_draw(self, dtype, blocks):
        dim = 8
        hash_size = int(blocks * embedding._INIT_BLOCK_ELEMS // dim)
        spec = TableSpec("t", hash_size=hash_size, dim=dim)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        table = EmbeddingTable(spec, rng, dtype=dtype)
        scale = 1.0 / np.sqrt(dim)
        one_shot = ref.uniform(-scale, scale, size=(hash_size, dim)).astype(dtype)
        assert table.weight.dtype == one_shot.dtype
        np.testing.assert_array_equal(table.weight, one_shot)
        assert rng.random() == ref.random()  # generator left in the same state

    def test_pop_grad_empty_returns_none(self, rng):
        assert self._table(rng).pop_grad() is None

    def test_pop_grad_coalesces_multiple_backwards(self, rng):
        table = self._table(rng)
        for _ in range(2):
            table.forward(simple_ragged([[1]]))
            table.backward(np.ones((1, 3)))
        g = table.pop_grad()
        np.testing.assert_array_equal(g.rows, [1])
        np.testing.assert_allclose(g.values, [[2.0, 2.0, 2.0]])


class TestEmbeddingBagCollection:
    def test_forward_all_features(self, rng):
        specs = uniform_tables(2, 10, dim=3, mean_lookups=1)
        coll = EmbeddingBagCollection(specs, rng)
        batch = {s.name: simple_ragged([[0], [1]]) for s in specs}
        out = coll.forward(batch)
        assert set(out) == {s.name for s in specs}
        assert out[specs[0].name].shape == (2, 3)

    def test_missing_feature_raises(self, rng):
        specs = uniform_tables(2, 10, dim=3)
        coll = EmbeddingBagCollection(specs, rng)
        with pytest.raises(KeyError):
            coll.forward({specs[0].name: simple_ragged([[0]])})

    def test_shared_table(self, rng):
        specs = uniform_tables(1, 10, dim=3, prefix="shared")
        coll = EmbeddingBagCollection(
            specs,
            rng,
            feature_to_table={"feat_a": "shared_0", "feat_b": "shared_0"},
        )
        batch = {
            "feat_a": simple_ragged([[1]]),
            "feat_b": simple_ragged([[2]]),
        }
        out = coll.forward(batch)
        table = coll.tables["shared_0"]
        np.testing.assert_allclose(out["feat_a"][0], table.weight[1])
        np.testing.assert_allclose(out["feat_b"][0], table.weight[2])
        # Backward through both features accumulates into the shared table.
        coll.backward({k: np.ones((1, 3)) for k in batch})
        g = table.pop_grad()
        assert set(g.rows) == {1, 2}

    def test_unknown_shared_table_rejected(self, rng):
        specs = uniform_tables(1, 10, dim=3)
        with pytest.raises(ValueError):
            EmbeddingBagCollection(specs, rng, feature_to_table={"f": "nope"})

    def test_total_bytes(self, rng):
        specs = uniform_tables(2, 10, dim=3)
        coll = EmbeddingBagCollection(specs, rng)
        assert coll.total_bytes == 2 * 10 * 3 * 8  # float64 in-memory


class TestArenaLifetime:
    """A table writing into a workspace arena against the same table
    without one: every result inside its stated lifetime is the fresh
    array's, bit for bit."""

    SPEC = TableSpec("t", hash_size=40, dim=3, mean_lookups=3.0)

    def _pair(self, factory=EmbeddingTable, **kwargs):
        plain, arena = (
            factory(self.SPEC, np.random.default_rng(3), **kwargs) for _ in range(2)
        )
        arena.set_backend("fused", Workspace())
        assert plain.workspace is None and arena.workspace is not None
        return plain, arena

    @staticmethod
    def _stream(seed, batch=6):
        rng = np.random.default_rng(seed)
        ids = [rng.integers(0, 40, size=rng.integers(0, 6)) for _ in range(batch)]
        return RaggedIndices.from_lists(ids), rng.standard_normal((batch, 3))

    @staticmethod
    def _assert_same_pending(plain, arena):
        assert len(plain.sparse_grads) == len(arena.sparse_grads)
        for want, got in zip(plain.sparse_grads, arena.sparse_grads):
            np.testing.assert_array_equal(got.rows, want.rows)
            np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("pooling", [PoolingType.SUM, PoolingType.MEAN])
    def test_two_backwards_before_one_step(self, pooling):
        """A micro-batch ``Trainer.train_step``: K sub-batches, one update."""
        plain, arena = self._pair(pooling=pooling)
        for seed in (0, 1, 2):
            indices, grad = self._stream(seed)
            for table in (plain, arena):
                np.testing.assert_array_equal(
                    table.forward(indices), plain.forward(indices, training=False)
                )
                table.backward(grad)
            # every earlier gradient is still what it was
            self._assert_same_pending(plain, arena)
        values = [g.values for g in arena.sparse_grads]
        assert all(arena.workspace.owns(v) for v in values)
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(values) for b in values[:i]
        )
        want, got = plain.pop_grad(), arena.pop_grad()  # > 1 pending: coalesced
        np.testing.assert_array_equal(got.rows, want.rows)
        np.testing.assert_array_equal(got.values, want.values)

    def test_gradient_lives_until_the_backward_after_zero_grad(self):
        _, arena = self._pair()
        indices, grad = self._stream(0)
        arena.forward(indices)
        arena.backward(grad)
        first = arena.sparse_grads[0].values
        kept = first.copy()
        arena.zero_grad()
        arena.forward(indices)  # a forward does not touch it ...
        np.testing.assert_array_equal(first, kept)
        arena.backward(2 * grad)  # ... the next backward takes the slot back
        assert np.shares_memory(arena.sparse_grads[0].values, first)
        np.testing.assert_array_equal(first, 2 * kept)

    def test_output_lives_until_the_next_forward(self):
        """The collection's pooled outputs are slabs of one arena array;
        a table called on its own answers with a fresh one."""
        specs = uniform_tables(3, 40, dim=3)
        plain, arena = (
            EmbeddingBagCollection(specs, np.random.default_rng(3)) for _ in range(2)
        )
        ws = Workspace()
        arena.set_backend("fused", ws)
        a = {s.name: self._stream(i)[0] for i, s in enumerate(specs)}
        b = {s.name: self._stream(i + 3)[0] for i, s in enumerate(specs)}
        out_a = arena.forward(a, training=False)
        assert ws.owns(out_a.array) and out_a.array.shape == (3, 6, 3)
        for i, s in enumerate(specs):
            assert np.shares_memory(out_a[s.name], out_a.array[i])
            assert out_a[s.name].flags.c_contiguous
            np.testing.assert_array_equal(
                out_a[s.name], plain.forward(a, training=False)[s.name]
            )
        out_b = arena.forward(b, training=False)
        assert out_b.array is out_a.array
        for s in specs:
            np.testing.assert_array_equal(
                out_b[s.name], plain.forward(b, training=False)[s.name]
            )
        # no per-table output buffer is left in the arena
        assert not any("out" in str(key) for key in ws._buffers)
        name = specs[0].name
        alone = arena.tables[name].forward(a[name], training=False)
        assert not ws.owns(alone)
        np.testing.assert_array_equal(
            alone, plain.tables[name].forward(a[name], training=False)
        )

    def test_shared_table_with_two_features(self):
        specs = uniform_tables(1, 40, dim=3, prefix="shared")
        sharing = {"feat_a": "shared_0", "feat_b": "shared_0"}
        plain, arena = (
            EmbeddingBagCollection(specs, np.random.default_rng(3), feature_to_table=sharing)
            for _ in range(2)
        )
        arena.set_backend("fused", Workspace())
        (ind_a, grad_a), (ind_b, grad_b) = self._stream(0), self._stream(1)
        batch = {"feat_a": ind_a, "feat_b": ind_b}
        out_plain, out_arena = plain.forward(batch), arena.forward(batch)
        for feature in batch:
            np.testing.assert_array_equal(out_arena[feature], out_plain[feature])
        for coll in (plain, arena):
            coll.backward({"feat_a": grad_a, "feat_b": grad_b})
        table = arena.tables["shared_0"]
        assert len(table.sparse_grads) == 2
        self._assert_same_pending(plain.tables["shared_0"], table)
        want, got = plain.tables["shared_0"].pop_grad(), table.pop_grad()
        np.testing.assert_array_equal(got.rows, want.rows)
        np.testing.assert_array_equal(got.values, want.values)

    def test_tiered_table_inherits_the_arena(self):
        plain, arena = self._pair(
            TieredEmbeddingTable,
            tiering=TieredStoreConfig(hot_fraction=0.25, chunk_rows=4),
        )
        for seed in (0, 1):
            indices, grad = self._stream(seed)
            for table in (plain, arena):
                out = table.forward(indices)
                table.backward(grad)
            np.testing.assert_array_equal(out, plain.forward(indices, training=False))
        assert arena.workspace.owns(arena.sparse_grads[1].values)
        self._assert_same_pending(plain, arena)
        assert arena.stats == plain.stats  # accounting is plan-side, untouched

    def test_reference_backend_keeps_allocating(self):
        table = EmbeddingTable(self.SPEC, np.random.default_rng(3))
        table.set_backend("numpy", Workspace())
        assert table.workspace is None
