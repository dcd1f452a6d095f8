"""Shared fixtures for the test suite (helpers live in helpers.py)."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core import (
    InteractionType,
    MLPSpec,
    ModelConfig,
    uniform_tables,
)
from repro.data import SyntheticDataGenerator

# Tier-1 is a gate, so its property tests draw the same examples on every
# run.  Open-ended search is `make fuzz`: fresh entropy each run (plus the
# example database), and 10x the examples wherever a test does not pin
# its own count.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_config() -> ModelConfig:
    """A DLRM small enough for numeric gradient checks."""
    return ModelConfig(
        name="tiny",
        num_dense=6,
        tables=uniform_tables(3, 50, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((6,)),
        interaction=InteractionType.DOT,
    )


@pytest.fixture
def concat_config() -> ModelConfig:
    return ModelConfig(
        name="tiny-concat",
        num_dense=6,
        tables=uniform_tables(3, 50, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((8, 5)),
        top_mlp=MLPSpec((6,)),
        interaction=InteractionType.CONCAT,
    )


@pytest.fixture
def tiny_generator(tiny_config) -> SyntheticDataGenerator:
    return SyntheticDataGenerator(tiny_config, rng=7, seed_teacher=True)
