"""Shared fixtures for the test suite (helpers live in helpers.py)."""

from __future__ import annotations

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
from repro.core.lanes import LANES, blas_threads, lane_count
from repro.data import SyntheticDataGenerator

# Tier-1 is a gate, so its property tests draw the same examples on every
# run.  Open-ended search is `make fuzz`: fresh entropy each run (plus the
# example database), and 10x the examples wherever a test does not pin
# its own count.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def mp_process_helpers():
    """multiprocessing opens some descriptors once per process, on first
    use, and keeps them: the resource tracker's pipe and the shared heap's
    arena (where a ``Barrier`` keeps its counters).  Opened up front, they
    are not taken for a test's leak."""
    from multiprocessing import heap, resource_tracker

    resource_tracker.ensure_running()
    heap.BufferWrapper(1)  # freed at once; the heap keeps its small arena


def open_fds() -> dict[str, str]:
    """This process's open file descriptors and what each points at
    (empty where there is no ``/proc``)."""
    fds = {}
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return fds
    for fd in names:
        try:
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return fds


@pytest.fixture(autouse=True)
def no_leaked_mp_resources(request):
    """The multi-process, pipeline and lanes tests must leave the process
    tree, the thread list, the descriptor table and /dev/shm as they found
    them — also after the crash-injection tests, whose parent-side cleanup
    is the thing at stake — and the test process's core budget too: only
    a forked worker takes a share of the cores (and lowers its BLAS
    threads), never the process that forked it."""
    module = request.module.__name__.rpartition(".")[2]
    if not module.startswith(("test_mp", "test_pipeline", "test_lanes")):
        yield
        return
    request.getfixturevalue("mp_process_helpers")
    LANES.close()  # the test starts with no helper thread
    fds_before = open_fds()
    budget = lane_count(), blas_threads()
    yield
    assert (lane_count(), blas_threads()) == budget
    assert not glob.glob(f"/dev/shm/repro_mp_{os.getpid()}_*")
    assert not multiprocessing.active_children()
    # the process's lanes keep their helpers between passes; no other may
    LANES.close()
    assert not [
        t.name for t in threading.enumerate()
        if t.name.startswith(("mp-drain-watch-", "pipeline-", "lane-"))
    ]
    leaked = {fd: path for fd, path in open_fds().items() if fd not in fds_before}
    assert not leaked, f"file descriptors left open: {leaked}"


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
