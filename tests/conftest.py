"""Shared fixtures for the test suite (helpers live in helpers.py)."""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import threading

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


@pytest.fixture(autouse=True)
def no_leaked_mp_resources(request):
    """The multi-process, pipeline and lanes tests must leave the process
    tree, the thread list and /dev/shm as they found them — also after the
    crash-injection tests, whose parent-side cleanup is the thing at stake."""
    yield
    module = request.module.__name__.rpartition(".")[2]
    if not module.startswith(("test_mp", "test_pipeline", "test_lanes")):
        return
    assert not glob.glob(f"/dev/shm/repro_mp_{os.getpid()}_*")
    assert not multiprocessing.active_children()

    def service_threads():
        return [
            t.name for t in threading.enumerate()
            if t.name.startswith(("mp-drain-watch-", "pipeline-", "lane-"))
        ]

    if service_threads():
        gc.collect()  # a trainer in a reference cycle stops its lanes when collected
    assert not service_threads()


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
