"""Tests for per-run training telemetry."""

import numpy as np
import pytest

from repro.core import (
    Adagrad,
    DLRM,
    InstrumentedTrainer,
    MetricsLogger,
    MetricSeries,
    Trainer,
)


class TestMetricSeries:
    def test_record_and_latest(self):
        s = MetricSeries("loss")
        s.record(0, 1.0)
        s.record(1, 0.5)
        assert len(s) == 2
        assert s.latest() == 0.5

    def test_smoothed_window(self):
        s = MetricSeries("loss")
        for i in range(20):
            s.record(i, float(i))
        assert s.smoothed(window=5) == pytest.approx(np.mean([15, 16, 17, 18, 19]))

    def test_out_of_order_rejected(self):
        s = MetricSeries("loss")
        s.record(5, 1.0)
        with pytest.raises(ValueError):
            s.record(3, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricSeries("x").latest()


class TestMetricsLogger:
    def test_record_multiple_metrics(self):
        logger = MetricsLogger()
        logger.record(0, loss=1.0, lr=0.1)
        logger.record(1, loss=0.9, lr=0.1)
        assert logger.names() == ["loss", "lr"]
        assert logger.series("loss").latest() == 0.9

    def test_unknown_series_rejected(self):
        with pytest.raises(KeyError):
            MetricsLogger().series("nope")

    def test_csv_export(self):
        logger = MetricsLogger()
        logger.record(0, loss=1.5)
        logger.record(1, loss=1.25)
        csv = logger.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "step,metric,value"
        assert len(lines) == 3
        assert "1,loss,1.25" in csv

    def test_summary(self):
        logger = MetricsLogger()
        for i, v in enumerate([3.0, 1.0, 2.0]):
            logger.record(i, loss=v)
        s = logger.summary()["loss"]
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["first"] == 3.0 and s["last"] == 2.0


def _adagrad_trainer(config):
    return Trainer(
        DLRM(config, rng=0),
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
    )


class TestInstrumentedTrainer:
    def test_logs_training_run(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        trainer = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        inst = InstrumentedTrainer(trainer)
        inst.train(tiny_generator.batches(32), max_examples=1600)
        loss = inst.logger.series("loss")
        assert len(loss) == 50
        assert inst.logger.series("examples_seen").latest() == 1600
        assert all(v > 0 for v in inst.logger.series("examples_per_s").values)
        assert inst.logger.series("lr").latest() == pytest.approx(0.05)

    def test_budget_validation(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        trainer = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        with pytest.raises(ValueError):
            InstrumentedTrainer(trainer).train(tiny_generator.batches(8), max_examples=0)

    def test_shared_iterator_is_not_pulled_past_the_budget(self, tiny_config, tiny_generator):
        pulled = []

        def counting():
            for batch in tiny_generator.batches(8):
                pulled.append(batch)
                yield batch

        stream = counting()
        inst = InstrumentedTrainer(_adagrad_trainer(tiny_config))
        inst.train(stream, max_examples=16)
        assert len(inst.logger.series("loss")) == len(pulled) == 2
        inst.train(stream, max_examples=8)  # the next call resumes at batch 3
        assert len(inst.logger.series("loss")) == len(pulled) == 3
        assert inst.logger.series("examples_seen").latest() == 24

    def test_short_stream_rejected(self, tiny_config, tiny_generator):
        inst = InstrumentedTrainer(_adagrad_trainer(tiny_config))
        with pytest.raises(ValueError, match="short of the training budget"):
            inst.train([tiny_generator.batch(8) for _ in range(2)], max_examples=64)
        assert len(inst.logger.series("loss")) == 2
