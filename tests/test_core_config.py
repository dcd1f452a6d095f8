"""Tests for repro.core.config: TableSpec, MLPSpec, ModelConfig."""

import pytest

from repro.core import (
    FP32_BYTES,
    InteractionType,
    MLPSpec,
    ModelConfig,
    TableSpec,
    uniform_tables,
)


class TestTableSpec:
    def test_basic_properties(self):
        spec = TableSpec("t", hash_size=1000, dim=16, mean_lookups=5.0)
        assert spec.num_parameters == 16000
        assert spec.size_bytes == 16000 * FP32_BYTES

    def test_truncation_caps_effective_lookups(self):
        spec = TableSpec("t", hash_size=10, dim=4, mean_lookups=50.0, truncation=32)
        assert spec.effective_mean_lookups == 32.0

    def test_truncation_does_not_raise_short_lookups(self):
        spec = TableSpec("t", hash_size=10, dim=4, mean_lookups=3.0, truncation=32)
        assert spec.effective_mean_lookups == 3.0

    def test_no_truncation_passthrough(self):
        spec = TableSpec("t", hash_size=10, dim=4, mean_lookups=50.0)
        assert spec.effective_mean_lookups == 50.0

    @pytest.mark.parametrize("field,value", [
        ("hash_size", 0),
        ("hash_size", -5),
        ("dim", 0),
        ("mean_lookups", -1.0),
        ("truncation", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        kwargs = dict(name="t", hash_size=10, dim=4, mean_lookups=1.0, truncation=None)
        kwargs[field] = value
        with pytest.raises(ValueError):
            TableSpec(**kwargs)


class TestMLPSpec:
    def test_caret_notation(self):
        spec = MLPSpec.from_notation("512^3")
        assert spec.layer_sizes == (512, 512, 512)
        assert spec.depth == 3
        assert spec.out_features == 512

    def test_dash_notation(self):
        spec = MLPSpec.from_notation("512-256-512")
        assert spec.layer_sizes == (512, 256, 512)

    def test_notation_roundtrip_uniform(self):
        assert MLPSpec.from_notation("64^2").notation() == "64^2"

    def test_notation_roundtrip_mixed(self):
        assert MLPSpec.from_notation("512-256-512").notation() == "512-256-512"

    def test_num_parameters(self):
        spec = MLPSpec((4, 3))
        # 2->4: 8 + 4 bias; 4->3: 12 + 3 bias
        assert spec.num_parameters(2) == 8 + 4 + 12 + 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MLPSpec(())

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            MLPSpec((8, 0))

    def test_rejects_zero_depth_notation(self):
        with pytest.raises(ValueError):
            MLPSpec.from_notation("64^0")


class TestModelConfig:
    def _config(self, interaction=InteractionType.CONCAT, bottom=(8, 5)):
        return ModelConfig(
            name="m",
            num_dense=10,
            tables=uniform_tables(4, 100, dim=5, mean_lookups=2.0),
            bottom_mlp=MLPSpec(bottom),
            top_mlp=MLPSpec((6,)),
            interaction=interaction,
        )

    def test_counts(self):
        cfg = self._config()
        assert cfg.num_sparse == 4
        assert cfg.embedding_dim == 5
        assert cfg.embedding_parameters == 4 * 100 * 5

    def test_embedding_bytes(self):
        cfg = self._config()
        assert cfg.embedding_bytes == 4 * 100 * 5 * FP32_BYTES

    def test_mean_total_lookups(self):
        cfg = self._config()
        assert cfg.mean_total_lookups == pytest.approx(8.0)

    def test_concat_interaction_width(self):
        cfg = self._config()
        assert cfg.interaction_features == (4 + 1) * 5

    def test_dot_interaction_width(self):
        cfg = self._config(interaction=InteractionType.DOT, bottom=(8, 5))
        # d + (n+1)n/2 pairs with n = 4 sparse features
        assert cfg.interaction_features == 5 + 10

    def test_dot_requires_matching_bottom_width(self):
        with pytest.raises(ValueError, match="dot interaction"):
            self._config(interaction=InteractionType.DOT, bottom=(8, 7))

    def test_mixed_dims_rejected(self):
        tables = uniform_tables(2, 10, dim=4) + uniform_tables(1, 10, dim=8, prefix="x")
        with pytest.raises(ValueError, match="fixed embedding dim"):
            ModelConfig("m", 4, tables, MLPSpec((4,)), MLPSpec((4,)))

    def test_requires_tables(self):
        with pytest.raises(ValueError):
            ModelConfig("m", 4, (), MLPSpec((4,)), MLPSpec((4,)))

    def test_duplicate_table_names_rejected(self):
        """A model keys its tables by name: a repeated name would leave one
        table for two specs."""
        tables = (TableSpec("a", 10, dim=4), TableSpec("a", 20, dim=4))
        with pytest.raises(ValueError, match="duplicate embedding table name 'a'"):
            ModelConfig("m", 4, tables, MLPSpec((4,)), MLPSpec((4,)))

    def test_mlp_parameters_includes_scorer(self):
        cfg = self._config()
        bottom = cfg.bottom_mlp.num_parameters(10)
        top = cfg.top_mlp.num_parameters(cfg.interaction_features)
        scorer = 6 + 1
        assert cfg.mlp_parameters == bottom + top + scorer

    def test_describe_matches_table2_shape(self):
        desc = self._config().describe()
        assert desc["num_sparse"] == 4
        assert desc["num_dense"] == 10
        assert "embedding_gb" in desc and "top_mlp" in desc

    def test_total_parameters_consistency(self):
        cfg = self._config()
        assert cfg.total_parameters == cfg.embedding_parameters + cfg.mlp_parameters


class TestUniformTables:
    def test_builds_identical_specs(self):
        tables = uniform_tables(3, 64, dim=8, mean_lookups=4.0, truncation=16)
        assert len(tables) == 3
        assert {t.hash_size for t in tables} == {64}
        assert {t.truncation for t in tables} == {16}
        assert len({t.name for t in tables}) == 3

    def test_rejects_zero_tables(self):
        with pytest.raises(ValueError):
            uniform_tables(0, 64)
