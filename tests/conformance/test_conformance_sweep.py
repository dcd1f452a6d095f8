"""Backend round-trips through pickling and SweepRunner process pools.

The satellite fix this pins: models (and their workspaces/backends) must
survive the process boundary of a :class:`~repro.runtime.SweepRunner`
pool — registered backends re-resolve to the worker's own registered
instance, and a parallel sweep under ``backend="fused"`` reproduces
serial ``"numpy"`` results bit-for-bit.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core import (
    DLRM,
    InteractionType,
    MLPSpec,
    ModelConfig,
    get_backend,
    known_backends,
    uniform_tables,
)
from repro.runtime import SweepRunner

from backend_cases import BACKEND_SPECS, assert_backend_matches
from helpers import backend_sweep_point, make_batch


# ---------------------------------------------------------------------------
# pickling round-trips
# ---------------------------------------------------------------------------


def test_registered_backends_pickle_to_singletons():
    for name in known_backends():
        be = get_backend(name)
        clone = pickle.loads(pickle.dumps(be))
        assert clone is be  # name-reduced: the registry instance comes back


def test_model_config_pickle_round_trips_backend():
    for name in known_backends():
        config = ModelConfig(
            name="cfg",
            num_dense=4,
            tables=uniform_tables(2, 16, dim=4, mean_lookups=1.0),
            bottom_mlp=MLPSpec((4,)),
            top_mlp=MLPSpec((4,)),
            interaction=InteractionType.DOT,
            backend=name,
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.backend == name


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_model_pickle_round_trips_backend_and_workspace(spec):
    be = get_backend(spec)
    config = ModelConfig(
        name="pickle-model",
        num_dense=4,
        tables=uniform_tables(2, 16, dim=4, mean_lookups=1.0),
        bottom_mlp=MLPSpec((6, 4)),
        top_mlp=MLPSpec((4,)),
        interaction=InteractionType.DOT,
    )
    model = DLRM(config, rng=0, backend=be)
    batch = make_batch(config, 8, seed=3)
    before = model.forward(batch, training=False)
    clone = pickle.loads(pickle.dumps(model))
    assert clone.backend is get_backend(spec)  # re-resolved by name
    assert (clone.workspace is None) == (model.workspace is None)
    # the clone's layers dispatch through its own backend/workspace pair
    after = clone.forward(batch, training=False)
    assert_backend_matches(be, after, before, "pickled-model forward")


# ---------------------------------------------------------------------------
# SweepRunner process pools
# ---------------------------------------------------------------------------


def test_sweep_pool_fused_equals_serial_numpy_bit_for_bit():
    """The headline regression: a process-pool sweep with ``backend="fused"``
    must equal the serial ``"numpy"`` sweep bit-for-bit (fused is
    bit-identical and results survive pickling unchanged)."""
    seeds = list(range(4))
    # fork start method: workers inherit sys.path, so the module-level
    # point function in tests/helpers.py resolves in the children
    runner = SweepRunner(workers=2, mp_context=multiprocessing.get_context("fork"))
    parallel = runner.map(
        backend_sweep_point,
        [{"backend": "fused", "batch_seed": s} for s in seeds],
        namespace="conformance-backend-sweep",
        use_cache=False,
    )
    serial = [backend_sweep_point(backend="numpy", batch_seed=s) for s in seeds]
    assert [p["backend"] for p in parallel] == ["fused"] * len(seeds)
    for p, s in zip(parallel, serial):
        assert p["losses"] == s["losses"]
        assert np.array_equal(p["preds"], s["preds"])
