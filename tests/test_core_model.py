"""Tests for repro.core.model: the assembled DLRM."""

import numpy as np
import pytest

from repro.core import (
    DLRM,
    Adagrad,
    Batch,
    BCEWithLogitsLoss,
    InteractionType,
    MLPSpec,
    ModelConfig,
    PoolingType,
    RaggedIndices,
    Trainer,
    dense_kernels,
    uniform_tables,
)
from repro.tiering import TieredStoreConfig

from helpers import make_batch, numeric_grad_scalar


class TestBatch:
    def test_valid_batch(self, tiny_config, tiny_generator):
        batch = tiny_generator.batch(8)
        assert batch.size == 8
        assert batch.dense.shape == (8, tiny_config.num_dense)
        assert set(batch.sparse) == {t.name for t in tiny_config.tables}

    def test_total_lookups(self, tiny_generator):
        batch = tiny_generator.batch(16)
        assert batch.total_lookups() == sum(
            r.total_lookups for r in batch.sparse.values()
        )

    def test_label_count_mismatch_rejected(self, tiny_generator):
        good = tiny_generator.batch(4)
        with pytest.raises(ValueError):
            Batch(good.dense, good.sparse, np.zeros(3))

    def test_sparse_batch_mismatch_rejected(self, tiny_config, tiny_generator):
        b4 = tiny_generator.batch(4)
        b8 = tiny_generator.batch(8)
        with pytest.raises(ValueError):
            Batch(b4.dense, b8.sparse, b4.labels)


class TestDLRMForward:
    def test_logit_shape(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        logits = model.forward(tiny_generator.batch(8))
        assert logits.shape == (8,)

    def test_deterministic_given_seed(self, tiny_config, tiny_generator):
        batch = tiny_generator.batch(8)
        l1 = DLRM(tiny_config, rng=3).forward(batch)
        l2 = DLRM(tiny_config, rng=3).forward(batch)
        np.testing.assert_array_equal(l1, l2)

    def test_concat_variant_works(self, concat_config):
        model = DLRM(concat_config, rng=0)
        batch = make_batch(concat_config, 8)
        assert model.forward(batch).shape == (8,)

    def test_wrong_dense_width_rejected(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        batch = tiny_generator.batch(4)
        bad = Batch(np.zeros((4, tiny_config.num_dense + 1)), batch.sparse, batch.labels)
        with pytest.raises(ValueError):
            model.forward(bad)

    def test_predict_proba_in_unit_interval(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        probs = model.predict_proba(tiny_generator.batch(32))
        assert np.all((probs > 0) & (probs < 1))

    def test_predict_proba_equals_training_forward_bitwise(
        self, tiny_config, tiny_generator
    ):
        """Inference plans skip the backward-only sorts; the numbers may
        not move."""
        from repro.core.loss import sigmoid

        model = DLRM(tiny_config, rng=0)
        batch = tiny_generator.batch(32)
        expected = sigmoid(model.forward(batch, training=True))
        model._discard_forward_state()
        np.testing.assert_array_equal(model.predict_proba(batch), expected)
        assert all(len(t._saved) == 0 for t in model.embeddings.tables.values())

    def test_repeated_inference_does_not_leak_state(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        for _ in range(3):
            model.predict_proba(tiny_generator.batch(4))
        for table in model.embeddings.tables.values():
            assert not table._saved


class TestDLRMBackward:
    @pytest.mark.parametrize("interaction", [InteractionType.DOT, InteractionType.CONCAT])
    def test_full_gradient_check(self, interaction):
        config = ModelConfig(
            name="gradcheck",
            num_dense=3,
            tables=uniform_tables(2, 12, dim=3, mean_lookups=2.0),
            bottom_mlp=MLPSpec((4, 3)),
            top_mlp=MLPSpec((4,)),
            interaction=interaction,
        )
        model = DLRM(config, rng=1)
        # Nudge biases off zero: an all-dead hidden layer otherwise leaves
        # pre-activations exactly on the ReLU kink, where the analytic
        # subgradient (0) and the central difference (slope 1/2) disagree.
        nudge = np.random.default_rng(9)
        for p in model.dense_parameters():
            if "bias" in p.name:
                p.value += nudge.normal(0.0, 0.05, size=p.value.shape)
        batch = make_batch(config, 4, seed=2)
        crit = BCEWithLogitsLoss()

        def loss():
            value = crit.forward(model.forward(batch), batch.labels)
            model._discard_forward_state()
            return value

        # dense parameters
        for p in model.dense_parameters():
            expected = numeric_grad_scalar(loss, p.value)
            model.zero_grad()
            value = crit.forward(model.forward(batch), batch.labels)
            model.backward(crit.backward())
            np.testing.assert_allclose(
                p.grad, expected, rtol=1e-4, atol=1e-7,
                err_msg=f"gradient mismatch for {p.name}",
            )
        # one embedding table
        table = model.embedding_tables()[0]
        expected = numeric_grad_scalar(loss, table.weight)
        model.zero_grad()
        crit.forward(model.forward(batch), batch.labels)
        model.backward(crit.backward())
        g = table.pop_grad()
        dense = np.zeros_like(table.weight)
        if g is not None:
            dense[g.rows] = g.values
        np.testing.assert_allclose(dense, expected, rtol=1e-4, atol=1e-7)

    def test_training_reduces_loss(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        opt = Adagrad(model.dense_parameters(), model.embedding_tables(), lr=0.05)
        crit = BCEWithLogitsLoss()
        losses = []
        for _ in range(60):
            batch = tiny_generator.batch(64)
            opt.zero_grad()
            losses.append(crit.forward(model.forward(batch), batch.labels))
            model.backward(crit.backward())
            opt.step()
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) - 0.01


class TestDLRMState:
    def test_dense_state_roundtrip(self, tiny_config):
        a = DLRM(tiny_config, rng=0)
        b = DLRM(tiny_config, rng=1)
        b.set_dense_state(a.get_dense_state())
        for pa, pb in zip(a.dense_parameters(), b.dense_parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_state_shape_mismatch_rejected(self, tiny_config, concat_config):
        a = DLRM(tiny_config, rng=0)
        b = DLRM(concat_config, rng=0)
        with pytest.raises(ValueError):
            b.set_dense_state(a.get_dense_state())

    def test_num_parameters_matches_config(self, tiny_config):
        model = DLRM(tiny_config, rng=0)
        assert model.num_parameters() == tiny_config.total_parameters


class TestEmbeddingArena:
    """The embedding tables draw from the model's workspace like every
    other layer; training through it is the workspace-less run's twin."""

    CONFIG = ModelConfig(
        name="arena",
        num_dense=4,
        tables=uniform_tables(3, 4000, dim=8, mean_lookups=6.0),
        bottom_mlp=MLPSpec((8, 8)),
        top_mlp=MLPSpec((8,)),
        interaction=InteractionType.DOT,
        compute_dtype="float32",
    )

    def _trainer(self, arena: bool):
        model = DLRM(self.CONFIG, rng=0)
        assert all(t.workspace is model.workspace for t in model.embedding_tables())
        if not arena:
            model.embeddings.set_backend(model.backend, None)
            assert model.embeddings.workspace is None
        optimizer = Adagrad(
            model.dense_parameters(), model.embedding_tables(), lr=0.05,
            backend=model.backend,
        )
        return model, optimizer, BCEWithLogitsLoss()

    @staticmethod
    def _step(model, optimizer, loss_fn, batch):
        optimizer.zero_grad()
        loss = loss_fn.forward(model.forward(batch), batch.labels)
        model.backward(loss_fn.backward())
        optimizer.step()
        return loss

    def test_predict_proba_between_two_train_steps(self):
        plain, arena = self._trainer(arena=False), self._trainer(arena=True)
        batches = [make_batch(self.CONFIG, 32, seed=s) for s in range(3)]
        histories = [
            [
                self._step(*parts, batches[0]),
                parts[0].predict_proba(batches[1]),
                self._step(*parts, batches[2]),
                parts[0].predict_proba(batches[1]),
            ]
            for parts in (plain, arena)
        ]
        for want, got in zip(*histories):
            np.testing.assert_array_equal(got, want)
        for want, got in zip(plain[0].embedding_tables(), arena[0].embedding_tables()):
            np.testing.assert_array_equal(got.weight, want.weight)

    def test_steady_state_mints_no_buffer_as_unique_rows_vary(self):
        model, optimizer, loss_fn = self._trainer(arena=True)
        # ~1 500 +- 15 unique rows per table per step: a new maximum now
        # and then, all inside a grow-only buffer's 1/16 headroom
        batches = [make_batch(self.CONFIG, 1024, seed=s) for s in range(25)]
        table = model.embedding_tables()[0]
        unique_rows = set()
        for batch in batches[:5]:
            self._step(model, optimizer, loss_fn, batch)
        misses = model.workspace.stats()["misses"]
        for batch in batches[5:]:
            optimizer.zero_grad()
            loss_fn.forward(model.forward(batch), batch.labels)
            model.backward(loss_fn.backward())
            unique_rows.add(table.sparse_grads[0].nnz_rows)
            optimizer.step()
        assert len(unique_rows) > 5  # the counts did differ
        assert model.workspace.stats()["misses"] == misses


class TestFeatureMajorHandOff:
    """Tables pool into one feature-major arena array, the interaction
    reads it and hands the gradients back the same way: through all of it
    ``fused`` is the ``numpy`` reference's twin, bit for bit."""

    @staticmethod
    def _config(interaction, dtype, backend):
        return ModelConfig(
            name="handoff",
            num_dense=5,
            tables=uniform_tables(4, 300, dim=8, mean_lookups=3.0),
            bottom_mlp=MLPSpec((16, 8)),
            top_mlp=MLPSpec((16, 8)),
            interaction=interaction,
            compute_dtype=dtype,
            backend=backend,
        )

    @staticmethod
    def _without_lookups(batch: Batch, feature: str) -> Batch:
        sparse = dict(batch.sparse)
        sparse[feature] = RaggedIndices(
            values=np.empty(0, dtype=np.int64),
            offsets=np.zeros(batch.size + 1, dtype=np.int64),
        )
        return Batch(batch.dense, sparse, batch.labels)

    def _history(self, backend, interaction, dtype, pooling, tiering):
        config = self._config(interaction, dtype, backend)
        model = DLRM(config, rng=0, pooling=pooling, tiering=tiering)
        assert model.backend.name == backend
        optimizer = Adagrad(
            model.dense_parameters(), model.embedding_tables(), lr=0.05,
            backend=model.backend,
        )
        loss_fn = BCEWithLogitsLoss()
        big = [make_batch(config, 24, seed=s) for s in range(3)]
        # a ragged final batch, one of whose tables sees no lookup at all
        small = self._without_lookups(make_batch(config, 10, seed=9), config.tables[2].name)
        out = []

        def rounds(*batches):
            optimizer.zero_grad()
            for batch in batches:
                out.append(loss_fn.forward(model.forward(batch), batch.labels))
                model.backward(loss_fn.backward())
            optimizer.step()

        rounds(big[0])
        out.append(model.predict_proba(small))  # inference between two steps
        rounds(small)
        rounds(big[1], small)  # a micro-batch train_step: two backwards, one step
        out.append(model.predict_proba(big[0]))
        rounds(big[2])  # two batch sizes interleaved
        out += [p.value for p in model.dense_parameters()]
        out += [t.weight for t in model.embedding_tables()]
        return model, out

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("interaction", [InteractionType.DOT, InteractionType.CONCAT])
    @pytest.mark.parametrize(
        "pooling, tiering",
        [
            (PoolingType.SUM, None),
            (PoolingType.MEAN, None),
            (PoolingType.SUM, TieredStoreConfig(hot_fraction=0.1, chunk_rows=4)),
        ],
        ids=["sum", "mean", "tiered"],
    )
    def test_fused_is_the_reference_bit_for_bit(self, interaction, dtype, pooling, tiering):
        _, want = self._history("numpy", interaction, dtype, pooling, tiering)
        model, got = self._history("fused", interaction, dtype, pooling, tiering)
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g, w, err_msg=f"history entry {i}")
        # one pooled array per batch size, no per-table output buffer
        keys = [key for key, *_ in model.workspace._buffers]
        assert keys.count("emb.pooled") == 2
        assert not [k for k in keys if isinstance(k, tuple) and k[0].startswith("emb[") and k[1] == "out"]

    def test_several_blocks_per_batch_change_no_bit(self, monkeypatch):
        """The same history with the dot kernels' byte budget cut to three
        samples per block (24 = 8 blocks, 10 = 3 full + a ragged one)."""
        args = (InteractionType.DOT, "float32", PoolingType.SUM, None)
        _, want = self._history("numpy", *args)
        monkeypatch.setattr(dense_kernels, "_DOT_BLOCK_BYTES", 3 * 5 * 5 * 4)
        assert dense_kernels.dot_block_rows(5, np.float32) == 3
        model, got = self._history("fused", *args)
        for i, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g, w, err_msg=f"history entry {i}")
        slot = (("interaction", "gram"), (3, 5, 5), np.dtype(np.float32))
        assert slot in model.workspace._buffers  # both batch sizes walked 3 at a time


class TestBottomStackInputGradient:
    """``DLRM`` builds its bottom stack with ``input_grad=False`` — its
    input is data — so layer 0 computes no ``dx`` and holds no buffer for
    one; nothing a step produces changes by a bit."""

    @staticmethod
    def _step(interaction, dtype, backend, input_grad):
        """One ``Trainer.train_step``: the gradients ``optimizer.step()`` was
        handed, the loss, and all state after it."""
        config = TestFeatureMajorHandOff._config(interaction, dtype, backend)
        model = DLRM(config, rng=0)
        first = model.bottom_mlp.layers[0]
        assert first.input_grad is False
        assert all(l.input_grad for l in model.top_mlp.layers[::2] + [model.scorer])
        first.input_grad = input_grad
        trainer = Trainer(
            model,
            lambda m: Adagrad(
                m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
            ),
        )
        out = {}

        def grads(stage):
            if stage == "grads":
                out["dense"] = [p.grad.copy() for p in model.dense_parameters()]
                pending = [t.sparse_grads for t in model.embedding_tables()]
                assert all(len(g) == 1 for g in pending)
                out["sparse"] = [a.copy() for (g,) in pending for a in (g.rows, g.values)]

        trainer.on_stage = grads
        out["loss"] = trainer.train_step(make_batch(config, 24, seed=3))
        dense_slots, accumulators = trainer.optimizer.slots()
        out["state"] = (
            [p.value for p in model.dense_parameters()]
            + [t.weight for t in model.embedding_tables()]
            + dense_slots
            + list(accumulators.values())
        )
        return model, out

    @pytest.mark.parametrize("backend", ["fused", "numpy"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("interaction", [InteractionType.CONCAT, InteractionType.DOT])
    def test_a_step_is_the_step_with_input_gradients_on(self, interaction, dtype, backend):
        _, want = self._step(interaction, dtype, backend, input_grad=True)
        model, got = self._step(interaction, dtype, backend, input_grad=False)
        assert got["loss"] == want["loss"]
        assert any(g.any() for g in got["dense"][:2])  # bottom layer 0 did learn
        for part in ("dense", "sparse", "state"):
            assert len(got[part]) == len(want[part])
            for i, (g, w) in enumerate(zip(got[part], want[part])):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w, err_msg=f"{part}[{i}]")
        if model.workspace is not None:
            keys = {key for key, *_ in model.workspace._buffers}
            assert ("bottom[0]", "gin") not in keys
            assert {("bottom[0]", "wg"), ("bottom[2]", "gin"), ("top[0]", "gin")} <= keys

    @pytest.mark.parametrize("backend", ["fused", "numpy"])
    def test_bottom_backward_returns_none(self, backend):
        config = TestFeatureMajorHandOff._config(InteractionType.CONCAT, "float32", backend)
        model = DLRM(config, rng=0)
        x = make_batch(config, 6, seed=0).dense.astype(np.float32)
        out = model.bottom_mlp.forward(x)
        assert model.bottom_mlp.backward(np.ones_like(out)) is None
        out = model.top_mlp.forward(np.ones((6, model.top_mlp.in_features), np.float32))
        assert model.top_mlp.backward(np.ones_like(out)).shape == (6, model.top_mlp.in_features)


class TestDotFootprint:
    """perfbench's ``train_dot`` shape (60 tables x dim 16, batch 2048: 61
    vectors, 1 830 pairs): nothing but the interaction's output is sized
    ``batch x pairs`` or ``batch x n_vec^2`` any more — the gram, the pair
    staging buffers and their ~57 MB exist one L2-sized block at a time —
    and a steady-state step mints no buffer."""

    BATCH = 2048

    def test_no_batch_sized_gram_or_pairs_buffer(self):
        config = ModelConfig(
            name="dot-footprint",
            num_dense=16,
            tables=uniform_tables(60, 1000, dim=16, mean_lookups=1.0),
            bottom_mlp=MLPSpec((32, 16)),
            top_mlp=MLPSpec((64,)),
            interaction=InteractionType.DOT,
            compute_dtype="float32",
            backend="fused",
        )
        model = DLRM(config, rng=0)
        optimizer = Adagrad(
            model.dense_parameters(), model.embedding_tables(), lr=0.01,
            backend=model.backend,
        )
        loss_fn = BCEWithLogitsLoss()
        batches = [make_batch(config, self.BATCH, seed=s) for s in range(4)]

        def step(batch):
            optimizer.zero_grad()
            loss_fn.forward(model.forward(batch), batch.labels)
            model.backward(loss_fn.backward())
            optimizer.step()

        # every batch once: the tables' grow-only row buffers (sized by the
        # data, not by this change) have then seen their maxima
        for batch in batches:
            step(batch)
        n_vec, pairs = 61, 61 * 60 // 2
        big = min(self.BATCH * pairs, self.BATCH * n_vec * n_vec)
        allowed = {
            ("interaction", "out"),  # the interaction's result
            ("top[0]", "gin"),  # the top MLP's gradient w.r.t. it
        }
        oversized = {
            key: buf.shape
            for (key, *_), buf in model.workspace._buffers.items()
            if buf.size >= big and key not in allowed
        }
        assert not oversized
        rows = dense_kernels.dot_block_rows(n_vec, np.float32)
        assert 3 * rows <= self.BATCH  # the batch does span several blocks
        for name in ("stack", "stack_t", "rows", "gram", "pairs_ext", "gstack"):
            shapes = [
                buf.shape for (key, *_), buf in model.workspace._buffers.items()
                if key == ("interaction", name)
            ]
            assert len(shapes) == 1 and shapes[0][0] == rows, (name, shapes)
        stats = model.workspace.stats()
        for i in range(10):
            step(batches[i % 4])
        after = model.workspace.stats()
        assert after["misses"] == stats["misses"]
        assert after["bytes"] == stats["bytes"] < 60e6
