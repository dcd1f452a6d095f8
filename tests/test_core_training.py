"""Tests for repro.core.training and repro.core.tuning."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    Adagrad,
    DLRM,
    SGD,
    SearchResult,
    Trainer,
    Trial,
    bayesian_search,
    evaluate,
    grid_search,
    random_search,
)
from repro.core.checkpoint import state_arrays
from repro.core.config import InteractionType
from repro.core.loss import BCEWithLogitsLoss
from repro.data import SyntheticDataGenerator
from repro.obs import Tracer
from repro.tiering import TieredStoreConfig


def _trainer(config, lr=0.05, rng=0):
    model = DLRM(config, rng=rng)
    return Trainer(
        model,
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=lr),
    )


class TestTrainer:
    def test_train_step_returns_loss(self, tiny_config, tiny_generator):
        t = _trainer(tiny_config)
        loss = t.train_step(tiny_generator.batch(32))
        assert np.isfinite(loss) and loss > 0

    def test_train_respects_example_budget(self, tiny_config, tiny_generator):
        t = _trainer(tiny_config)
        result = t.train(tiny_generator.batches(32), max_examples=320)
        assert result.examples_seen == 320
        assert result.steps == 10

    def test_train_respects_step_budget(self, tiny_config, tiny_generator):
        t = _trainer(tiny_config)
        result = t.train(tiny_generator.batches(32), max_steps=5)
        assert result.steps == 5

    def test_larger_batches_take_fewer_steps(self, tiny_config, tiny_generator):
        small = _trainer(tiny_config).train(tiny_generator.batches(16), max_examples=640)
        big = _trainer(tiny_config).train(tiny_generator.batches(64), max_examples=640)
        assert small.steps == 4 * big.steps

    def test_no_budget_rejected(self, tiny_config, tiny_generator):
        with pytest.raises(ValueError):
            _trainer(tiny_config).train(tiny_generator.batches(16))

    def test_empty_stream_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            _trainer(tiny_config).train(iter([]), max_steps=5)

    def test_loss_decreases_on_teacher_data(self, tiny_config, tiny_generator):
        t = _trainer(tiny_config)
        result = t.train(tiny_generator.batches(64), max_steps=80)
        assert result.smoothed_final_loss < result.loss_history[0]

    def test_works_with_sgd(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        t = Trainer(model, lambda m: SGD(m.dense_parameters(), m.embedding_tables(), lr=0.05))
        result = t.train(tiny_generator.batches(64), max_steps=40)
        assert np.isfinite(result.final_loss)

    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    def test_trainer_reads_backend_off_the_model(self, backend, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0, backend=backend)
        tracer = Tracer()
        t = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), backend=m.backend),
            tracer=tracer,
        )
        assert t.backend is model.backend
        assert t.fused == (model.workspace is not None)
        t.train_step(tiny_generator.batch(8))
        (step,) = [s for s in tracer.spans if s.name == "train_step"]
        assert step.attributes["backend"] == model.backend.name == backend


def _state_bytes(model):
    return [p.value.tobytes() for p in model.dense_parameters()] + [
        t.weight.tobytes() for t in model.embedding_tables()
    ]


class TestStageContract:
    """The seam the hybrid workers train through (``Trainer.on_stage``)."""

    def test_stages_fire_in_order_and_change_nothing(self, tiny_config, tiny_generator):
        class Recording(Trainer):
            def on_stage(self, stage):
                self.seen.append(stage)
                if stage == "grads":
                    self.state_at_grads = _state_bytes(self.model)

        def build(cls):
            return cls(
                DLRM(tiny_config, rng=0),
                lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
            )

        assert Trainer.world == 1 and Trainer.on_stage is None
        base, recording = build(Trainer), build(Recording)
        for batch in [tiny_generator.batch(16) for _ in range(3)]:
            recording.seen = []
            before = _state_bytes(recording.model)
            assert recording.train_step(batch) == base.train_step(batch)
            assert recording.seen == ["loss", "grads"]
            assert recording.state_at_grads == before  # optimizer not yet run
            assert _state_bytes(recording.model) == _state_bytes(base.model) != before


def _micro_setup(tiny_config, dtype, backend, interaction=InteractionType.DOT, tiered=False):
    config = dataclasses.replace(
        tiny_config, compute_dtype=dtype, backend=backend, interaction=interaction
    )
    tiering = TieredStoreConfig(hot_fraction=0.25, chunk_rows=4) if tiered else None

    def build(tracer=None):
        return Trainer(
            DLRM(config, rng=0, tiering=tiering),
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05,
                              backend=m.backend),
            tracer=tracer,
        )

    return config, build


def _full_state(trainer):
    return {k: v.tobytes() for k, v in state_arrays(trainer.model, trainer.optimizer).items()}


def _hand_written_step(trainer, batches):
    """The serial hybrid reference's step as it was written out by hand:
    one zero-grad, each micro-batch's forward/loss/backward with the loss
    gradient scaled by 1/W, one optimizer step."""
    model, optimizer = trainer.model, trainer.optimizer
    loss_fn = BCEWithLogitsLoss(workspace=model.workspace, backend=model.backend)
    inv_world = 1.0 / len(batches)
    model.zero_grad()
    optimizer.zero_grad()
    losses = []
    for batch in batches:
        logits = model.forward(batch)
        losses.append(loss_fn.forward(logits, batch.labels))
        grad = loss_fn.backward()
        grad *= inv_world
        model.backward(grad)
    optimizer.step()
    return losses


@pytest.mark.parametrize("backend", ["numpy", "fused"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestMicroBatchStep:
    """``train_step`` over a sequence of micro-batches: the serial reference
    of the hybrid trainer, and a one-batch sequence is the plain step."""

    def test_one_micro_batch_is_the_plain_step(self, tiny_config, dtype, backend):
        config, build = _micro_setup(tiny_config, dtype, backend)
        gen = SyntheticDataGenerator(config, rng=7, seed_teacher=True)
        plain, micro = build(), build()
        for batch in [gen.batch(16) for _ in range(3)]:
            loss = plain.train_step(batch)
            assert isinstance(loss, float)
            assert micro.train_step([batch]) == [loss]
            assert _full_state(micro) == _full_state(plain)
        assert micro.step_index == plain.step_index == 3

    @pytest.mark.parametrize("tiered", [False, True], ids=["flat", "tiered"])
    @pytest.mark.parametrize(
        "interaction", [InteractionType.DOT, InteractionType.CONCAT], ids=["dot", "concat"]
    )
    def test_micro_batches_match_the_hand_written_step(
        self, tiny_config, dtype, backend, interaction, tiered
    ):
        config, build = _micro_setup(tiny_config, dtype, backend, interaction, tiered)
        gens = [SyntheticDataGenerator(config, rng=r, seed_teacher=True) for r in (3, 4)]
        tracer = Tracer()
        trainer, oracle = build(tracer), build()
        for _ in range(3):
            batches = [g.batch(12) for g in gens]
            assert trainer.train_step(batches) == _hand_written_step(oracle, batches)
            assert _full_state(trainer) == _full_state(oracle)
        tier_spans = [s for s in tracer.spans if s.name == "tier"]
        assert len(tier_spans) == (3 * 2 * len(config.tables) if tiered else 0)
        for table in trainer.model.embedding_tables() if tiered else ():
            hits = sum(
                s.attributes["hits"] for s in tier_spans
                if s.attributes["table"] == table.spec.name
            )
            assert hits == table.stats.hot_hits > 0

    def test_stages_fire_per_micro_batch_then_once(self, tiny_config, dtype, backend):
        config, build = _micro_setup(tiny_config, dtype, backend)
        gen = SyntheticDataGenerator(config, rng=7, seed_teacher=True)
        trainer = build()
        seen = []
        trainer.on_stage = seen.append
        losses = trainer.train_step([gen.batch(8) for _ in range(3)])
        assert len(losses) == 3
        assert seen == ["loss", "loss", "loss", "grads"]
        assert trainer.step_index == 1

    def test_bad_sequences_rejected(self, tiny_config, dtype, backend):
        config, build = _micro_setup(tiny_config, dtype, backend)
        gen = SyntheticDataGenerator(config, rng=7, seed_teacher=True)
        trainer = build()
        with pytest.raises(ValueError, match="got 0 micro-batches"):
            trainer.train_step([])
        batches = [gen.batch(8), gen.batch(8)]
        plans = [trainer.model.embeddings.plan_batch(batches[0].sparse)]
        with pytest.raises(ValueError, match="got 2 micro-batches and 1 plans"):
            trainer.train_step(batches, plans)
        assert trainer.step_index == 0


class TestTrainerBudgetAccounting:
    """The partial-final-batch and stream-exhaustion contracts."""

    def test_final_batch_counted_in_full(self, tiny_config, tiny_generator):
        # Budget 100 with batch 64: the second batch crosses the budget and
        # every example in it trained the model, so examples_seen reports
        # the true count (128), not the budget.
        result = _trainer(tiny_config).train(
            tiny_generator.batches(64), max_examples=100
        )
        assert result.steps == 2
        assert result.examples_seen == 128

    def test_examples_seen_never_undercounts(self, tiny_config, tiny_generator):
        result = _trainer(tiny_config).train(
            tiny_generator.batches(48), max_examples=100
        )
        assert result.examples_seen == 48 * result.steps
        assert result.examples_seen >= 100

    def test_early_exhaustion_names_budget(self, tiny_config, tiny_generator):
        # A finite stream that ends before the example budget must fail
        # loudly, naming the budget and the progress made.
        stream = [tiny_generator.batch(32) for _ in range(2)]
        with pytest.raises(ValueError, match=r"max_examples=320") as exc:
            _trainer(tiny_config).train(iter(stream), max_examples=320)
        assert "64 examples" in str(exc.value)
        assert "2 steps" in str(exc.value)

    def test_early_exhaustion_names_step_budget(self, tiny_config, tiny_generator):
        stream = [tiny_generator.batch(16)]
        with pytest.raises(ValueError, match=r"max_steps=9"):
            _trainer(tiny_config).train(iter(stream), max_steps=9)

    def test_stream_meeting_budget_exactly_is_fine(self, tiny_config, tiny_generator):
        stream = [tiny_generator.batch(32) for _ in range(3)]
        result = _trainer(tiny_config).train(iter(stream), max_examples=96)
        assert result.examples_seen == 96 and result.steps == 3

    def test_empty_stream_message_names_budget(self, tiny_config):
        with pytest.raises(ValueError, match=r"empty before the first step.*max_steps=5"):
            _trainer(tiny_config).train(iter([]), max_steps=5)


class TestEvaluate:
    def test_metrics_present(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        metrics = evaluate(model, [tiny_generator.batch(128) for _ in range(2)])
        assert set(metrics) >= {"normalized_entropy", "log_loss", "num_examples"}
        assert metrics["num_examples"] == 256

    def test_trained_model_beats_untrained(self, tiny_config, tiny_generator):
        eval_batches = [tiny_generator.batch(256) for _ in range(2)]
        fresh = DLRM(tiny_config, rng=0)
        ne_before = evaluate(fresh, eval_batches)["normalized_entropy"]
        t = Trainer(
            fresh,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        t.train(tiny_generator.batches(64), max_steps=120)
        ne_after = evaluate(fresh, eval_batches)["normalized_entropy"]
        assert ne_after < ne_before

    def test_empty_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            evaluate(DLRM(tiny_config, rng=0), [])


class TestSearch:
    def _objective(self, lr: float) -> float:
        # smooth bowl in log-space with optimum at lr = 0.01
        return (np.log10(lr) + 2.0) ** 2

    def test_grid_search_finds_bowl(self):
        result = grid_search(self._objective, 1e-4, 1.0, num=9)
        assert result.num_trials == 9
        assert result.best.learning_rate == pytest.approx(0.01, rel=0.5)

    def test_random_search_deterministic_seed(self):
        a = random_search(self._objective, 1e-4, 1.0, num=5, rng=3)
        b = random_search(self._objective, 1e-4, 1.0, num=5, rng=3)
        assert [t.learning_rate for t in a.trials] == [t.learning_rate for t in b.trials]

    def test_bayesian_beats_or_matches_random_on_budget(self):
        bayes = bayesian_search(self._objective, 1e-4, 1.0, num=10, num_init=3, rng=1)
        assert bayes.num_trials == 10
        assert bayes.best.loss < 0.5  # found a near-optimal lr

    def test_diverged_trial_never_wins(self):
        nan = float("nan")
        assert SearchResult((Trial(0.9, nan), Trial(0.03, 0.1))).best == Trial(0.03, 0.1)
        # ties among finite losses still go to the first
        assert SearchResult((Trial(0.9, 0.1), Trial(0.03, 0.1))).best.learning_rate == 0.9

    def test_bayesian_search_survives_a_diverged_trial(self):
        """A NaN among the observations must neither win nor blind the
        surrogate: the search still homes in on the finite bowl."""
        def objective(lr: float) -> float:
            return float("nan") if lr > 0.3 else (np.log10(lr) + 1.5) ** 2

        result = bayesian_search(objective, 1e-3, 1.0, num=8, num_init=3, rng=4)
        assert any(np.isnan(t.loss) for t in result.trials)
        assert np.isfinite(result.best.loss)
        assert 0.01 < result.best.learning_rate < 0.1  # the bowl is at 0.03

    def test_bayesian_trials_within_bounds(self):
        result = bayesian_search(self._objective, 1e-3, 0.1, num=8, rng=0)
        for t in result.trials:
            assert 1e-3 * 0.999 <= t.learning_rate <= 0.1 * 1.001

    @pytest.mark.parametrize("func", [grid_search, random_search, bayesian_search])
    def test_bad_bounds_rejected(self, func):
        with pytest.raises(ValueError):
            func(self._objective, 1.0, 0.1)

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            grid_search(self._objective, 0.01, 0.1, num=1)
