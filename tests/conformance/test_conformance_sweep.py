"""Backend round-trips through pickling and SweepRunner process pools.

The satellite fix this pins: models (and their workspaces/backends) must
survive the process boundary of a :class:`~repro.runtime.SweepRunner`
pool — registered backends re-resolve to the worker's own registered
instance, thread pools never pickle, and a parallel sweep under
``backend="fused"`` reproduces serial ``"numpy"`` results bit-for-bit.
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
from repro.core.backends.threaded import ThreadedBackend
from repro.runtime import SweepRunner

from backend_cases import BACKEND_SPECS, assert_backend_matches, make_backend
from helpers import backend_sweep_point, make_batch


# ---------------------------------------------------------------------------
# pickling round-trips
# ---------------------------------------------------------------------------


def test_registered_backends_pickle_to_singletons():
    for name in known_backends():
        be = get_backend(name)
        clone = pickle.loads(pickle.dumps(be))
        assert clone is be  # name-reduced: the registry instance comes back


def test_custom_threaded_instance_pickles_state_without_pool():
    be = ThreadedBackend(workers=2, min_rows=4)
    be._get_pool()  # materialize a live pool
    clone = pickle.loads(pickle.dumps(be))
    assert clone is not be
    assert clone.workers == 2 and clone.min_rows == 4
    assert clone._pool is None and clone._pool_pid is None
    # the clone still computes (lazily recreating its pool)
    x = np.random.default_rng(0).standard_normal((16, 3))
    w = np.random.default_rng(1).standard_normal((5, 3))
    b = np.zeros(5)
    from repro.core import Workspace

    out = clone._matmul_rows(x, w.T, np.empty((16, 5)))
    np.testing.assert_allclose(out, x @ w.T, rtol=1e-12, atol=1e-12)
    ws = Workspace()
    np.testing.assert_allclose(
        clone.linear_forward(x, w, b, ws, "k"), x @ w.T + b, rtol=1e-12, atol=1e-12
    )


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
    be = make_backend(spec)
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
    assert clone.backend.name == model.backend.name
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


def test_sweep_pool_round_trips_threaded_backend_selection():
    """A sweep over the ``"threaded"`` spec must re-resolve in the worker
    (falling back to ``"fused"`` on single-core machines) and still match
    the reference within the backend's tolerance."""
    import os

    seeds = [0, 1]  # two points, so the runner actually opens a pool
    runner = SweepRunner(workers=2, mp_context=multiprocessing.get_context("fork"))
    points = runner.map(
        backend_sweep_point,
        [{"backend": "threaded", "batch_seed": s} for s in seeds],
        namespace="conformance-threaded-sweep",
        use_cache=False,
    )
    expected = "threaded" if (os.cpu_count() or 1) >= 2 else "fused"
    rtol, atol = get_backend("threaded").tolerance(np.float64)
    for seed, point in zip(seeds, points):
        assert point["backend"] == expected
        ref = backend_sweep_point(backend="numpy", batch_seed=seed)
        np.testing.assert_allclose(point["losses"], ref["losses"], rtol=rtol, atol=atol)
        np.testing.assert_allclose(point["preds"], ref["preds"], rtol=rtol, atol=atol)
