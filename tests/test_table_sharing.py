"""Tests for embedding-table sharing (paper §III-A.2)."""

import numpy as np
import pytest

from repro.core import (
    ConcatInteraction,
    DotInteraction,
    EmbeddingBagCollection,
    RaggedIndices,
    TableSpec,
    Workspace,
    merge_shared_tables,
    uniform_tables,
)
from helpers import simple_ragged


def _tables():
    return (
        TableSpec("item_id", 1_000_000, dim=16, mean_lookups=1.0),
        TableSpec("last_items", 800_000, dim=16, mean_lookups=20.0),
        TableSpec("country", 200, dim=16, mean_lookups=1.0),
    )


class TestMergeSharedTables:
    def test_merged_table_properties(self):
        physical, mapping = merge_shared_tables(
            _tables(), groups=(("item_id", "last_items"),)
        )
        assert len(physical) == 2
        merged = next(t for t in physical if t.name == "item_id")
        # shared hash sizing: the max of the group
        assert merged.hash_size == 1_000_000
        # lookups: every feature still looks up
        assert merged.mean_lookups == pytest.approx(21.0)
        assert mapping == {
            "item_id": "item_id",
            "last_items": "item_id",
            "country": "country",
        }

    def test_size_reduction(self):
        tables = _tables()
        physical, _ = merge_shared_tables(tables, (("item_id", "last_items"),))
        before = sum(t.size_bytes for t in tables)
        after = sum(t.size_bytes for t in physical)
        assert after < before

    def test_truncation_merged(self):
        tables = (
            TableSpec("a", 100, dim=8, mean_lookups=5, truncation=8),
            TableSpec("b", 100, dim=8, mean_lookups=5, truncation=16),
        )
        physical, _ = merge_shared_tables(tables, (("a", "b"),))
        assert physical[0].truncation == 16

    def test_no_groups_identity(self):
        tables = _tables()
        physical, mapping = merge_shared_tables(tables, ())
        assert physical == tables
        assert all(mapping[t.name] == t.name for t in tables)

    @pytest.mark.parametrize("groups", [
        (("item_id",),),                     # singleton
        (("item_id", "nope"),),              # unknown feature
        (("item_id", "last_items"), ("last_items", "country")),  # overlap
    ])
    def test_invalid_groups_rejected(self, groups):
        with pytest.raises(ValueError):
            merge_shared_tables(_tables(), groups)

    def test_mixed_dims_rejected(self):
        tables = (
            TableSpec("a", 100, dim=8),
            TableSpec("b", 100, dim=16),
        )
        with pytest.raises(ValueError):
            merge_shared_tables(tables, (("a", "b"),))


class TestSharedCollectionTraining:
    def test_shared_collection_from_merge(self, rng):
        """The merge output drives a working shared EmbeddingBagCollection."""
        physical, mapping = merge_shared_tables(
            uniform_tables(2, 100, dim=4, mean_lookups=2, prefix="f"),
            groups=(("f_0", "f_1"),),
        )
        coll = EmbeddingBagCollection(physical, rng, feature_to_table=mapping)
        batch = {
            "f_0": simple_ragged([[1], [2]]),
            "f_1": simple_ragged([[3], [1]]),
        }
        out = coll.forward(batch)
        table = coll.tables["f_0"]
        np.testing.assert_allclose(out["f_0"][0], table.weight[1])
        np.testing.assert_allclose(out["f_1"][1], table.weight[1])
        # gradients from both features land in one physical table
        coll.backward({k: np.ones((2, 4)) for k in batch})
        grad = table.pop_grad()
        assert set(grad.rows) == {1, 2, 3}


class TestSharedTableThroughTheHandOff:
    """A shared table whose features are *not* adjacent in feature order
    (``f_0`` and ``f_2`` on one table, ``f_1`` between them) cannot pool
    into one run of the feature-major array; pooled outputs, interaction
    output and every table's gradient still equal the reference's."""

    DIM = 4

    def _side(self, backend, interaction_cls):
        # merge_shared_tables lists a group's features together; a mapping
        # written by hand need not
        specs = uniform_tables(4, 60, dim=self.DIM, mean_lookups=2, prefix="f")
        physical = tuple(s for s in specs if s.name != "f_2")
        mapping = {"f_0": "f_0", "f_1": "f_1", "f_2": "f_0", "f_3": "f_3"}
        coll = EmbeddingBagCollection(
            physical, np.random.default_rng(5), feature_to_table=mapping
        )
        interaction = interaction_cls(num_sparse=4, dim=self.DIM)
        ws = Workspace() if backend == "fused" else None
        coll.set_backend(backend, ws)
        interaction.set_backend(backend, ws, key="interaction")
        return coll, interaction

    @staticmethod
    def _batch(seed, size):
        rng = np.random.default_rng(seed)
        return {
            f"f_{i}": RaggedIndices.from_lists(
                [rng.integers(0, 60, size=rng.integers(0, 4)) for _ in range(size)]
            )
            for i in range(4)
        }

    @pytest.mark.parametrize("interaction_cls", [DotInteraction, ConcatInteraction])
    def test_fused_equals_reference(self, interaction_cls):
        sides = [self._side(b, interaction_cls) for b in ("numpy", "fused")]
        assert sides[1][0]._table_groups[0] == ("f_0", [0, 2], None)  # no run of slabs
        for seed, size in ((0, 7), (1, 3), (2, 7)):  # two sizes interleaved
            batch = self._batch(seed, size)
            rng = np.random.default_rng(seed + 10)
            dense = rng.standard_normal((size, self.DIM))
            seen = []
            for coll, interaction in sides:
                pooled = coll.forward(batch)
                out = interaction.forward(dense, pooled.array)
                grad_out = np.random.default_rng(seed + 20).standard_normal(out.shape)
                grad_dense, grad_embs = interaction.backward(grad_out)
                coll.backward(dict(zip(coll.feature_names, grad_embs)))
                grads = [t.pop_grad() for t in coll.tables.values()]
                seen.append(
                    [pooled.array, out, grad_dense]
                    + [g.rows for g in grads]
                    + [g.values for g in grads]
                )
            for i, (want, got) in enumerate(zip(*seen)):
                np.testing.assert_array_equal(got, want, err_msg=f"seed {seed} item {i}")
