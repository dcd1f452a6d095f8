"""Synthetic data substrate: feature generators, teacher click model, train/eval split."""

from .click_model import ClickModel
from .distributions import (
    power_law_mean_lengths,
    sample_discrete_zipf,
    sample_lognormal_with_mean,
    sample_power_law,
    zipf_probabilities,
)
from .reader import train_eval_split
from .synthetic import SyntheticDataGenerator, sample_lengths, sample_zipf_indices

__all__ = [
    "ClickModel",
    "sample_power_law",
    "sample_lognormal_with_mean",
    "zipf_probabilities",
    "sample_discrete_zipf",
    "power_law_mean_lengths",
    "SyntheticDataGenerator",
    "sample_lengths",
    "sample_zipf_indices",
    "train_eval_split",
]
