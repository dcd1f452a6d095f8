"""The training data path (the loop of :meth:`Trainer.train`) and the
pieces it is built from: plan-ahead coalesce kernels, ``touched_rows`` ==
``pop_grad`` rows, the prep ledger, the step budget, error propagation,
and the lanes a step keeps (no prep thread holds a core).
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DLRM,
    Adagrad,
    EmbeddingTable,
    RaggedIndices,
    TableSpec,
    Trainer,
)
from repro.core import kernels, lanes
from repro.core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.data import SyntheticDataGenerator
from repro.obs import MetricsRegistry, Tracer
from repro.tiering import TieredStoreConfig

common = settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

# ---------------------------------------------------------------------------
# plan-ahead kernels: coalesce_plan/apply must equal the inline fused forms
# ---------------------------------------------------------------------------

index_streams = st.lists(
    st.integers(min_value=0, max_value=15), min_size=0, max_size=60
)


class TestPlanKernels:
    @common
    @given(index_streams, st.integers(min_value=1, max_value=6))
    def test_plan_apply_matches_coalesce_rows(self, idx, dim):
        indices = np.asarray(idx, dtype=np.int64)
        grads = np.random.default_rng(len(idx)).normal(size=(len(idx), dim))
        plan = kernels.coalesce_plan(indices)
        rows_ref, vals_ref = kernels.coalesce_rows(indices, grads)
        assert np.array_equal(plan.rows, rows_ref)
        assert np.array_equal(kernels.coalesce_apply(plan, grads), vals_ref)

    @common
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=6),
    )
    def test_expand_apply_matches_expand_coalesce(self, lengths, dim):
        lengths = np.asarray(lengths, dtype=np.int64)
        total = int(lengths.sum())
        rng = np.random.default_rng(total + dim)
        indices = rng.integers(0, 16, size=total)
        grad_out = rng.normal(size=(len(lengths), dim))
        plan = kernels.coalesce_plan(indices, lengths)
        rows_ref, vals_ref = kernels.expand_coalesce(indices, lengths, grad_out)
        assert np.array_equal(plan.rows, rows_ref)
        assert np.array_equal(kernels.expand_apply(plan, grad_out), vals_ref)
        # the plan carries what the backward used to rebuild per call
        sample_of = np.repeat(np.arange(len(lengths)), lengths)
        assert np.array_equal(plan.sample_of_sorted, sample_of[plan.order])
        with pytest.raises(ValueError, match="lengths"):
            kernels.expand_apply(kernels.coalesce_plan(indices + 1), grad_out)

    @common
    @given(index_streams)
    def test_plan_is_pure_function_of_indices(self, idx):
        a = kernels.coalesce_plan(np.asarray(idx, dtype=np.int64))
        b = kernels.coalesce_plan(np.asarray(idx, dtype=np.int64))
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.indptr, b.indptr)


# ---------------------------------------------------------------------------
# touched_rows: the weight-independent id plan must name pop_grad's rows
# ---------------------------------------------------------------------------

ragged_features = st.lists(  # one entry per feature: per-sample index lists
    st.lists(
        st.lists(st.integers(min_value=0, max_value=31), max_size=4),
        min_size=3,
        max_size=3,
    ),
    min_size=1,
    max_size=3,
)


class TestTouchedRows:
    @common
    @given(ragged_features)
    def test_touched_rows_equals_pop_grad_rows(self, per_feature):
        spec = TableSpec("t", hash_size=32, dim=4, mean_lookups=1.0)
        table = EmbeddingTable(spec, rng=np.random.default_rng(0))
        features = [RaggedIndices.from_lists(f) for f in per_feature]
        plan = table.plan_forward(features)
        outs = table.forward_batched(features, plan=plan)
        for out in reversed(outs):  # saved contexts pop in reverse order
            table.backward(np.ones_like(out))
        grad = table.pop_grad()
        touched = plan.touched_rows()
        if grad is None:
            assert len(touched) == 0
        else:
            assert np.array_equal(touched, grad.rows)


# ---------------------------------------------------------------------------
# Trainer.train over the data path: what it publishes, what it pulls
# ---------------------------------------------------------------------------


class TestTrainerBitIdentity:
    def test_raw_train_steps_publish_what_train_does(self):
        """``train_step`` plans a raw batch itself, so stepping batches one
        by one publishes the same tier counters and ``tier`` span deltas as
        ``train()`` over the same batches."""
        config = _tiny_config()
        gen = SyntheticDataGenerator(config, rng=5, seed_teacher=True)
        batches = [gen.batch(8) for _ in range(4)]
        tiering = TieredStoreConfig(hot_fraction=0.25, chunk_rows=2)

        def published(drive):
            metrics, tracer = MetricsRegistry(), Tracer()
            trainer = _trainer(
                DLRM(config, rng=0, tiering=tiering),
                tracer=tracer, metrics=metrics,
            )
            losses = drive(trainer)
            counters = {
                name: {k: c.value for k, c in metrics.get(name).children().items()}
                for name in ("tier_hot_hits", "tier_cold_misses", "tier_promotions",
                             "tier_rejected", "tier_overhead_s")
            }
            spans = [s.attributes for s in tracer.spans if s.name == "tier"]
            return losses, counters, spans

        stepped = published(lambda t: [t.train_step(b) for b in batches])
        trained = published(
            lambda t: t.train(iter(batches), max_steps=len(batches)).loss_history
        )
        assert stepped == trained
        assert len(stepped[2]) == len(batches) * len(config.tables)
        counters = stepped[1]
        assert sum(counters["tier_hot_hits"].values()) + sum(
            counters["tier_cold_misses"].values()
        ) > 0

    def test_step_budget_plans_no_batch_past_it(self):
        """``train(max_steps=n)`` pulls and plans exactly ``n`` batches: the
        live tier stats and hot sets are those of ``n`` raw steps, the
        ledger counts ``n`` batches, and a shared source resumes at batch
        ``n``."""
        config = _tiny_config()
        gen = SyntheticDataGenerator(config, rng=7, seed_teacher=True)
        batches = [gen.batch(8) for _ in range(10)]
        tiering = TieredStoreConfig(hot_fraction=0.25, chunk_rows=2)
        steps = 4

        stepped = _trainer(DLRM(config, rng=0, tiering=tiering))
        for batch in batches[:steps]:
            stepped.train_step(batch)
        trainer = _trainer(DLRM(config, rng=0, tiering=tiering))
        source = iter(batches)
        result = trainer.train(source, max_steps=steps)

        assert result.pipeline["batches"] == steps
        assert next(source) is batches[steps]
        pairs = zip(trainer.model.embedding_tables(), stepped.model.embedding_tables())
        for table, ref in pairs:
            assert table.stats == ref.stats
            assert table.hot_chunks.tolist() == ref.hot_chunks.tolist()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_step_plans_as_its_caller_does(self, dtype):
        """``train_step(batch)`` plans the batch itself, bit for bit what
        ``train_step(batch, plans)`` does with the caller's plans."""
        (model, gen), (twin, _) = _tiny(dtype), _tiny(dtype)
        raw, planned = _trainer(model), _trainer(twin)
        for batch in gen.batches(8, 3):
            plans = twin.embeddings.plan_batch(batch.sparse)
            assert raw.train_step(batch) == planned.train_step(batch, plans)

        def state(m):
            tables = [t.weight for t in m.embedding_tables()]
            return [a.tobytes() for a in m.get_dense_state() + tables]

        assert state(model) == state(twin)


# ---------------------------------------------------------------------------
# prep ledger, lanes, stream order, error propagation
# ---------------------------------------------------------------------------


def assert_inline_ledger(ledger, batches):
    """The consumer waits for all of the prep, and nothing overlaps."""
    assert ledger["batches"] == batches
    assert ledger["overlap_fraction"] == 0.0
    assert ledger["prep_stall_s"] == 0.0
    assert ledger["compute_stall_s"] == ledger["prep_busy_s"] > 0.0


def _trainer(model, **kwargs):
    return Trainer(
        model,
        lambda m: Adagrad(
            m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
        ),
        **kwargs,
    )


def _tiny(dtype="float64"):
    """A tiny model and a seeded batch source over its config."""
    config = _tiny_config(dtype)
    return DLRM(config, rng=0), SyntheticDataGenerator(config, rng=3, seed_teacher=True)


def _tiny_config(dtype="float64"):
    return ModelConfig(
        name="pipe-tiny",
        num_dense=4,
        tables=uniform_tables(2, hash_size=16, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((8,)),
        interaction=InteractionType.DOT,
        compute_dtype=dtype,
    )


class TestStallLedger:
    def test_ledger_shape_and_bounds(self):
        model, gen = _tiny()
        ledger = _trainer(model, pipeline=True).train(gen.batches(8, 5), max_steps=5).pipeline
        assert set(ledger) == {
            "prep_busy_s", "prep_stall_s", "compute_stall_s", "overlap_fraction",
            "batches",
        }
        assert_inline_ledger(ledger, 5)

    def test_batch_generation_counts_as_prep_work(self):
        """Pulling a batch from the source is generation, which the ledger
        counts as busy time, not only the plans built after it."""
        model, gen = _tiny()
        nap, steps = 0.02, 4

        def slow_source():
            for batch in gen.batches(8, steps):
                time.sleep(nap)
                yield batch

        result = _trainer(model).train(slow_source(), max_steps=steps)
        assert_inline_ledger(result.pipeline, steps)
        assert result.pipeline["prep_busy_s"] >= steps * nap

    def test_inline_run_reports_the_depth_0_ledger(self):
        model, gen = _tiny()
        result = _trainer(model).train(gen.batches(8, 2), max_steps=2)
        assert_inline_ledger(result.pipeline, 2)

    def test_inline_prep_spans_are_on_the_consumer_lane(self):
        model, gen = _tiny()
        tracer = Tracer()
        _trainer(model, tracer=tracer).train(gen.batches(8, 3), max_steps=3)
        prep = [s for s in tracer.spans if s.name == "pipeline.prep"]
        assert [s.attributes["seq"] for s in prep] == [0, 1, 2]
        assert {s.tid for s in prep} == {0}


class TestLifecycle:
    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        monkeypatch.setattr(lanes, "available_cores", lambda: 4)

    def test_inline_trainer_holds_no_core(self):
        """No prep thread: every step gets all the lanes."""
        model, gen = _tiny()
        trainer = _trainer(model)
        seen = []
        step = trainer.train_step

        def counted_step(batch, plans):
            seen.append(lanes.lane_count())
            return step(batch, plans)

        trainer.train_step = counted_step
        trainer.train(gen.batches(8, 3), max_steps=3)
        assert seen == [4, 4, 4]
        assert lanes.lane_count() == 4

    def test_pipeline_flag_starts_no_thread_and_keeps_every_lane(self, monkeypatch):
        """``Trainer(pipeline=True)`` moves no work: its steps read the
        process's whole share of the cores and no ``pipeline-`` thread runs."""
        monkeypatch.setattr(lanes, "_share", 2)
        seen = []

        class Watched(Trainer):
            def on_stage(self, stage):
                prep = [t for t in threading.enumerate() if t.name.startswith("pipeline-")]
                seen.append((lanes.lane_count(), len(prep)))

        model, gen = _tiny()
        trainer = Watched(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
            pipeline=True,
        )
        trainer.train(gen.batches(8, 3), max_steps=3)
        assert seen == [(2, 0)] * 6  # "loss" and "grads", three steps

    def test_a_finished_run_frees_its_last_batch_at_once(self):
        """Nothing outlives ``train`` that refers to its batches, so the
        last one (and its plans) is freed without the cyclic collector: a
        cycle that kept a batch, its plans and the source per ``train``
        call read +9.6 % peak RSS on perfbench's ``train_dot``."""
        model, gen = _tiny()
        trainer = _trainer(model)
        last = gen.batch(8)
        freed = weakref.ref(last)
        gc.disable()
        try:
            trainer.train(iter([gen.batch(8), last]), max_steps=2)
            del last
            assert freed() is None
        finally:
            gc.enable()

    def test_trainer_pipeline_must_be_bool(self):
        with pytest.raises(TypeError, match="pipeline"):
            Trainer(DLRM(_tiny_config(), rng=0), lambda m: None, pipeline=3)


class TestErrorPropagation:
    def test_inline_source_error_surfaces_in_stream_order(self):
        """A source that raises after two batches: ``train`` raises its
        error after two steps."""
        model, gen = _tiny()

        def source():
            yield from gen.batches(8, 2)
            raise RuntimeError("generator exploded")

        trainer = _trainer(model)
        with pytest.raises(RuntimeError, match="generator exploded"):
            trainer.train(source(), max_steps=5)
        assert trainer.step_index == 2

    def test_plan_fn_error_surfaces(self):
        """An index out of its table's range raises while the batch is
        planned, before its step."""
        model, gen = _tiny()
        good, bad = gen.batch(4), gen.batch(4)
        table = model.config.tables[0]
        bad.sparse[table.name] = RaggedIndices.from_lists([[table.hash_size]] * 4)
        trainer = _trainer(model)
        with pytest.raises(IndexError, match="out of range"):
            trainer.train(iter([good, bad]), max_steps=2)
        assert trainer.step_index == 1


# ---------------------------------------------------------------------------
# batch_stream: the lazy, rng-faithful source the hybrid workers prepare from
# ---------------------------------------------------------------------------


class TestBatchStream:
    @pytest.mark.parametrize("skip", [0, 2])
    def test_stream_matches_eager_generation(self, skip):
        config = _tiny_config()
        eager_gen = SyntheticDataGenerator(config, rng=9, seed_teacher=True)
        eager = [eager_gen.batch(6) for _ in range(5)][skip:]
        lazy_gen = SyntheticDataGenerator(config, rng=9, seed_teacher=True)
        lazy = list(lazy_gen.batch_stream(6, 5, skip=skip))
        assert len(eager) == len(lazy)
        for a, b in zip(eager, lazy):
            assert np.array_equal(a.dense, b.dense)
            assert np.array_equal(a.labels, b.labels)
            assert a.sparse.keys() == b.sparse.keys()
            for name in a.sparse:
                assert np.array_equal(a.sparse[name].values, b.sparse[name].values)
                assert np.array_equal(a.sparse[name].offsets, b.sparse[name].offsets)

    def test_negative_skip_rejected(self):
        gen = SyntheticDataGenerator(_tiny_config(), rng=0)
        with pytest.raises(ValueError, match="skip"):
            next(gen.batch_stream(4, 2, skip=-1))
