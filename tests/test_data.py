"""Tests for repro.data: distributions, synthetic generation, teacher, reader."""

import numpy as np
import pytest

from repro.data import (
    ClickModel,
    SyntheticDataGenerator,
    power_law_mean_lengths,
    sample_lengths,
    sample_lognormal_with_mean,
    sample_power_law,
    sample_zipf_indices,
    train_eval_split,
    zipf_probabilities,
)


class TestPowerLaw:
    def test_respects_bounds(self, rng):
        x = sample_power_law(rng, 5000, alpha=2.5, x_min=2.0, x_max=50.0)
        assert x.min() >= 2.0 and x.max() <= 50.0

    def test_heavier_tail_for_smaller_alpha(self, rng):
        light = sample_power_law(rng, 20000, alpha=3.5, x_min=1.0)
        heavy = sample_power_law(rng, 20000, alpha=1.8, x_min=1.0)
        assert np.percentile(heavy, 99) > np.percentile(light, 99)

    def test_alpha_at_most_one_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_power_law(rng, 10, alpha=1.0)

    def test_bad_bounds_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_power_law(rng, 10, alpha=2.0, x_min=5.0, x_max=2.0)


class TestLogNormal:
    def test_mean_targeting(self, rng):
        x = sample_lognormal_with_mean(rng, 200000, target_mean=5e6, sigma=1.0)
        assert x.mean() == pytest.approx(5e6, rel=0.05)

    def test_clipping(self, rng):
        x = sample_lognormal_with_mean(rng, 1000, 100.0, clip_min=30, clip_max=200)
        assert x.min() >= 30 and x.max() <= 200

    def test_bad_mean_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_lognormal_with_mean(rng, 10, target_mean=0.0)


class TestZipf:
    def test_probabilities_normalized(self):
        p = zipf_probabilities(100, exponent=1.1)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) <= 0)  # rank 1 most popular

    def test_zero_exponent_uniform(self):
        p = zipf_probabilities(10, exponent=0.0)
        np.testing.assert_allclose(p, 0.1)

    def test_indices_in_range(self, rng):
        idx = sample_zipf_indices(rng, 10000, hash_size=500, skew=1.05)
        assert idx.min() >= 0 and idx.max() < 500

    def test_skewed_access_concentration(self, rng):
        idx = sample_zipf_indices(rng, 50000, hash_size=10000, skew=1.05)
        counts = np.bincount(idx, minlength=10000)
        top_share = np.sort(counts)[::-1][:100].sum() / 50000
        assert top_share > 0.3  # top 1% of rows gets > 30% of accesses

    def test_zero_skew_near_uniform(self, rng):
        idx = sample_zipf_indices(rng, 50000, hash_size=100, skew=0.0)
        counts = np.bincount(idx, minlength=100)
        assert counts.max() / counts.min() < 1.5

    def test_empty(self, rng):
        assert len(sample_zipf_indices(rng, 0, 10)) == 0


class TestPowerLawMeanLengths:
    def test_exact_overall_mean(self, rng):
        lengths = power_law_mean_lengths(rng, 50, overall_mean=20.0)
        assert lengths.mean() == pytest.approx(20.0, rel=1e-6)

    def test_skew_exists(self, rng):
        lengths = power_law_mean_lengths(rng, 100, overall_mean=10.0)
        assert lengths.max() > 3 * np.median(lengths)

    def test_positive_floor(self, rng):
        lengths = power_law_mean_lengths(rng, 100, overall_mean=1.0)
        assert lengths.min() > 0


class TestSampleLengths:
    def test_truncation(self, rng):
        lengths = sample_lengths(rng, 1000, mean_lookups=20.0, truncation=8)
        assert lengths.max() <= 8

    def test_mean_roughly_matches(self, rng):
        lengths = sample_lengths(rng, 20000, mean_lookups=6.0)
        assert lengths.mean() == pytest.approx(6.0, rel=0.05)

    def test_min_length(self, rng):
        lengths = sample_lengths(rng, 100, mean_lookups=0.5, min_length=1)
        assert lengths.min() >= 1


class TestSyntheticGenerator:
    def test_batch_structure(self, tiny_config):
        gen = SyntheticDataGenerator(tiny_config, rng=0)
        batch = gen.batch(16)
        assert batch.size == 16
        for spec in tiny_config.tables:
            ragged = batch.sparse[spec.name]
            assert ragged.batch_size == 16
            if len(ragged.values):
                assert ragged.values.max() < spec.hash_size

    def test_labels_are_binary(self, tiny_config):
        gen = SyntheticDataGenerator(tiny_config, rng=0)
        labels = gen.batch(200).labels
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_default_ctr_without_teacher(self, tiny_config):
        gen = SyntheticDataGenerator(tiny_config, rng=0, default_ctr=0.3)
        labels = np.concatenate([gen.batch(500).labels for _ in range(4)])
        assert labels.mean() == pytest.approx(0.3, abs=0.05)

    def test_batches_generator_counts(self, tiny_config):
        gen = SyntheticDataGenerator(tiny_config, rng=0)
        assert len(list(gen.batches(8, num_batches=5))) == 5

    def test_zero_batch_rejected(self, tiny_config):
        gen = SyntheticDataGenerator(tiny_config, rng=0)
        with pytest.raises(ValueError):
            gen.batch(0)


class TestClickModel:
    def test_labels_learnable_signal(self, tiny_config):
        """Teacher AUC of its own labels must clearly beat random."""
        gen = SyntheticDataGenerator(tiny_config, rng=0, seed_teacher=True)
        batch = gen.batch(4000)
        logits = gen.teacher.logits(batch.dense, batch.sparse)
        from repro.core import auc

        assert auc(logits, batch.labels) > 0.62

    def test_target_ctr_honored_after_calibration(self, tiny_config):
        teacher = ClickModel(tiny_config, rng=0, target_ctr=0.2, noise_scale=0.0)
        gen = SyntheticDataGenerator(tiny_config, rng=1, teacher=teacher)
        sample = gen.batch(4000)
        teacher.calibrate(sample.dense, sample.sparse)
        labels = np.concatenate([gen.batch(1000).labels for _ in range(4)])
        assert labels.mean() == pytest.approx(0.2, abs=0.05)

    def test_bad_ctr_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            ClickModel(tiny_config, target_ctr=1.5)

    def test_dense_width_checked(self, tiny_config):
        teacher = ClickModel(tiny_config, rng=0)
        with pytest.raises(ValueError):
            teacher.logits(np.zeros((2, tiny_config.num_dense + 1)), {})

    def test_bayes_log_loss_positive(self, tiny_config):
        teacher = ClickModel(tiny_config, rng=0)
        assert 0 < teacher.bayes_log_loss() < np.log(2) + 0.2


class TestTrainEvalSplit:
    def test_train_eval_split(self, tiny_config):
        gen = SyntheticDataGenerator(tiny_config, rng=0)
        stream, eval_batches = train_eval_split(gen, batch_size=16, num_eval_batches=3)
        assert len(eval_batches) == 3
        assert next(stream).size == 16
