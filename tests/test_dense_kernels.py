"""Workspace-arena and steady-state-allocation tests for the fused dense path.

The naive-vs-fused *equivalence* tests that historically lived here moved
to the parametrized backend conformance suite (``tests/conformance/``),
which runs them against every registered backend.  What remains is
internal to the fused path itself:

* the shared stable-sigmoid implementation (dtype preservation),
* the backend selector's workspace wiring,
* the workspace arena contract (reuse counters, ownership, row slabs,
  pickling),
* the zero-steady-state-allocation contract (workspace counters +
  ``tracemalloc``),
* the DOT gram's BLAS route (a GEMM on a copied transpose, never SYRK),
* the blocked dense optimizer steps' argument contract (contiguity and
  shape are verified, not assumed) and the optimizer arena's footprint.
"""

from __future__ import annotations

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DLRM,
    SGD,
    Adagrad,
    InteractionType,
    MLPSpec,
    ModelConfig,
    Trainer,
    Workspace,
    dense_kernels,
    get_backend,
    stable_sigmoid,
    uniform_tables,
)
from repro.core.backends import reference_backend
from repro.core.loss import sigmoid as loss_sigmoid
from repro.core.mlp import Sigmoid

from helpers import make_batch


# ---------------------------------------------------------------------------
# shared stable sigmoid (dedupe satellite)
# ---------------------------------------------------------------------------


def test_sigmoid_single_implementation_and_dtypes():
    x32 = np.array([-30.0, -1.5, 0.0, 2.5, 40.0], dtype=np.float32)
    assert loss_sigmoid(x32).dtype == np.float32  # historical bug: upcast
    assert stable_sigmoid(x32.astype(np.float64)).dtype == np.float64
    # non-float inputs compute in float64
    assert stable_sigmoid(np.array([0, 1, 2])).dtype == np.float64
    # mlp.Sigmoid and loss.sigmoid agree exactly (they are the same code)
    layer = Sigmoid()
    assert np.array_equal(layer.forward(x32), loss_sigmoid(x32))
    # extreme logits neither overflow nor hit exactly 0/1 gradients' domain
    big = np.array([-1000.0, 1000.0])
    out = loss_sigmoid(big)
    assert np.all(np.isfinite(out)) and out[0] == 0.0 and out[1] == 1.0


# ---------------------------------------------------------------------------
# backend selector wiring
# ---------------------------------------------------------------------------


def _train_config(dtype_name: str) -> ModelConfig:
    return ModelConfig(
        name="fused-e2e",
        num_dense=6,
        tables=uniform_tables(4, 64, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((6,)),
        interaction=InteractionType.DOT,
        compute_dtype=dtype_name,
    )


def test_numpy_backend_has_no_workspace():
    config = _train_config("float64")
    assert DLRM(config, rng=0).workspace is not None
    assert DLRM(replace(config, backend="numpy"), rng=0).workspace is None


# ---------------------------------------------------------------------------
# workspace arena behaviour
# ---------------------------------------------------------------------------


def test_workspace_reuse_counters_and_ownership():
    ws = Workspace()
    a = ws.get("x", (4, 3), np.float64)
    assert ws.stats()["misses"] == 1
    b = ws.get("x", (4, 3), np.float64)
    assert b is a
    assert ws.stats()["hits"] == 1
    # distinct key / shape / dtype each allocate fresh storage
    assert ws.get("y", (4, 3), np.float64) is not a
    assert ws.get("x", (4, 4), np.float64) is not a
    assert ws.get("x", (4, 3), np.float32) is not a
    assert ws.owns(a) and ws.owns(a[1:]) and ws.owns(a.reshape(-1))
    assert not ws.owns(np.zeros(3))
    assert ws.total_bytes() == sum(
        buf.nbytes for buf in (a, ws.get("y", (4, 3), np.float64),
                               ws.get("x", (4, 4), np.float64),
                               ws.get("x", (4, 3), np.float32))
    )


def test_workspace_get_rows_is_grow_only():
    ws = Workspace()
    a = ws.get_rows("g", 32, (3,), np.float32)
    assert a.shape == (32, 3) and a.dtype == np.float32 and ws.owns(a)
    assert ws.total_bytes() == 34 * 3 * 4  # the request plus 1/16 headroom
    # anything up to capacity is a view of the same storage, and a hit
    for rows in (4, 32, 34):
        b = ws.get_rows("g", rows, (3,), np.float32)
        assert b.shape == (rows, 3) and np.shares_memory(a, b)
    assert ws.stats()["misses"] == 1 and ws.stats()["hits"] == 3
    # a larger request replaces the buffer
    c = ws.get_rows("g", 35, (3,), np.float32)
    assert c.shape == (35, 3) and not np.shares_memory(a, c)
    assert ws.stats()["misses"] == 2 and ws.stats()["buffers"] == 1
    assert ws.owns(c) and not ws.owns(a)  # the retired buffer is the caller's
    # width, dtype and key each name their own buffer; get() keys never collide
    assert not np.shares_memory(c, ws.get_rows("g", 2, (4,), np.float32))
    assert not np.shares_memory(c, ws.get_rows("g", 2, (3,), np.float64))
    assert not np.shares_memory(c, ws.get("g", (3,), np.float32))


def test_workspace_get_rows_fill_initialises_every_new_buffer():
    ws = Workspace()
    ones = ws.get_rows("ones", 5, (), np.float32, fill=1)
    assert ones.shape == (5,) and np.all(ones == 1)
    grown = ws.get_rows("ones", 50, (), np.float32, fill=1)
    assert len(grown.base) == 53 and np.all(grown.base == 1)  # headroom included


def test_workspace_pickling_drops_buffers():
    ws = Workspace()
    ws.get("x", (128, 128), np.float64)
    clone = pickle.loads(pickle.dumps(ws))
    assert clone.total_bytes() == 0
    assert clone.stats()["buffers"] == 0
    # and the clone still works as an arena
    arr = clone.get("x", (2, 2), np.float64)
    assert clone.owns(arr)


def test_model_workspace_steady_state_no_new_buffers():
    """After warm-up, a train step allocates no new arena buffers at all."""
    config = _train_config("float64")
    model = DLRM(config, rng=0)
    trainer = Trainer(
        model,
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
    )
    batches = [make_batch(config, 32, seed=s) for s in range(4)]
    for b in batches:
        trainer.train_step(b)
    misses_before = model.workspace.stats()["misses"]
    hits_before = model.workspace.stats()["hits"]
    for b in batches:
        trainer.train_step(b)
    stats = model.workspace.stats()
    assert stats["misses"] == misses_before  # zero new allocations
    assert stats["hits"] > hits_before


def test_logits_survive_next_forward():
    """The returned logits are peeled off the arena: a second forward must
    not clobber the first call's return value."""
    config = _train_config("float64")
    model = DLRM(config, rng=0)
    b1 = make_batch(config, 16, seed=1)
    b2 = make_batch(config, 16, seed=2)
    out1 = model.forward(b1, training=False)
    snapshot = out1.copy()
    model.forward(b2, training=False)
    assert np.array_equal(out1, snapshot)
    assert not model.workspace.owns(out1)


def test_steady_state_allocations_tracemalloc():
    """The fused step's steady-state Python-visible allocation high-water
    mark is a small fraction of the naive step's (which allocates every
    activation, gradient and optimizer temporary afresh)."""
    config = ModelConfig(
        name="alloc",
        num_dense=32,
        tables=uniform_tables(2, 50, dim=8, mean_lookups=1.0),
        bottom_mlp=MLPSpec((64, 8)),
        top_mlp=MLPSpec((64,)),
        interaction=InteractionType.CONCAT,
    )
    batches = [make_batch(config, 256, seed=s) for s in range(2)]

    def peak_step_bytes(backend: str) -> int:
        model = DLRM(replace(config, backend=backend), rng=0)
        trainer = Trainer(
            model,
            lambda m: Adagrad(
                m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=backend
            ),
        )
        for _ in range(3):  # warm the arena to steady state
            for b in batches:
                trainer.train_step(b)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            current0, _ = tracemalloc.get_traced_memory()
            for b in batches:
                trainer.train_step(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current0

    fused_peak = peak_step_bytes("fused")
    naive_peak = peak_step_bytes("numpy")
    # The naive path allocates ~every (256 x 64) activation and optimizer
    # temporary per step; the fused path's remaining allocations are the
    # logits copy and the shared sparse-path bookkeeping.
    assert fused_peak < naive_peak / 3, (fused_peak, naive_peak)


# ---------------------------------------------------------------------------
# the DOT interaction's gram route
# ---------------------------------------------------------------------------


def _dot_inputs(batch: int, n_vec: int, dim: int, dtype):
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((batch, dim)).astype(dtype)
    embs = [rng.standard_normal((batch, dim)).astype(dtype) for _ in range(n_vec - 1)]
    tril = np.tril_indices(n_vec, k=-1)
    return dense, embs, tril, dense_kernels.dot_out_map(dim, n_vec, tril)


def test_fused_dot_gram_operands_share_no_memory(monkeypatch):
    """numpy hands ``stack @ stack.transpose(0, 2, 1)`` (one buffer times
    its own transposed view) to BLAS ``?syrk`` and mirrors the triangle;
    the fused forward multiplies by a copied transpose, so every gram is a
    ``?gemm``."""
    calls = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        calls.append(np.shares_memory(a, b))
        return matmul(a, b, *args, **kwargs)

    dense, embs, tril, out_map = _dot_inputs(7, 61, 16, np.float32)  # train_dot
    monkeypatch.setattr(np, "matmul", spy)
    get_backend("fused").dot_forward(dense, embs, tril, out_map, Workspace(), "d")
    assert calls and not any(calls)


@pytest.mark.parametrize("spec", ["numpy", "fused"])
def test_dot_gram_is_the_gemm_of_a_copied_transpose(spec):
    """Both backends' grams equal a per-sample ``s @ contiguous(s.T)``
    loop bit for bit.  At f64, 27 vectors x dim 16 OpenBLAS's ``?syrk``
    and ``?gemm`` disagree in the last bits on x86-64, so a backend that
    went back to the transposed view fails here."""
    dense, embs, tril, out_map = _dot_inputs(5, 27, 16, np.float64)
    stack = np.stack([dense, *embs], axis=1)
    gram = np.stack([s @ np.ascontiguousarray(s.T) for s in stack])
    expected = np.concatenate([dense, gram[:, tril[0], tril[1]]], axis=1)
    be = get_backend(spec)
    ws = Workspace() if be.uses_workspace else None
    out, _ = be.dot_forward(dense, embs, tril, out_map, ws, "d")
    np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------------
# blocked dense optimizer steps
# ---------------------------------------------------------------------------


def _strided(kind: str, seed: int) -> np.ndarray:
    """A ``(4, 3)`` array that is not C-contiguous: ``reshape(-1)`` of it
    is a copy, so a walker that flattened without checking would update the
    copy and lose the step."""
    base = np.random.default_rng(seed).standard_normal((4, 6)) + 2.0
    return base[:, ::2] if kind == "column-slice" else np.asfortranarray(base[:, :3])


def _step_args(strided: str, kind: str) -> dict[str, np.ndarray]:
    names = ("value", "grad", "state", "velocity")
    return {
        name: _strided(kind, i) if name == strided
        else np.ascontiguousarray(_strided(kind, i))
        for i, name in enumerate(names)
    }


@pytest.mark.parametrize("kind", ["column-slice", "fortran"])
@pytest.mark.parametrize("strided", ["value", "grad", "state"])
def test_adagrad_dense_step_rejects_a_strided_argument_before_writing(strided, kind):
    a = _step_args(strided, kind)
    before = {name: arr.copy() for name, arr in a.items()}
    bufs = np.empty((2, 8))
    with pytest.raises(ValueError, match=f"^{strided} must be a C-contiguous"):
        dense_kernels.adagrad_dense_step(
            a["value"], a["grad"], a["state"], 0.05, 1e-10, *bufs
        )
    for name, arr in a.items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)


@pytest.mark.parametrize("kind", ["column-slice", "fortran"])
@pytest.mark.parametrize("strided", ["value", "grad", "velocity"])
def test_sgd_dense_step_rejects_a_strided_argument_before_writing(strided, kind):
    a = _step_args(strided, kind)
    before = {name: arr.copy() for name, arr in a.items()}
    with pytest.raises(ValueError, match=f"^{strided} must be a C-contiguous"):
        dense_kernels.sgd_dense_step(
            a["value"], a["grad"], 0.1, np.empty(8),
            weight_decay=1e-3, momentum=0.9, velocity=a["velocity"],
        )
    for name, arr in a.items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)


def test_dense_steps_reject_a_shape_mismatch_naming_the_argument():
    value, state = np.ones((4, 3)), np.ones((4, 3))
    bufs = np.empty((2, 8))
    with pytest.raises(ValueError, match=r"^grad must be .* shape \(4, 3\)"):
        dense_kernels.adagrad_dense_step(value, np.ones((3, 4)), state, 0.05, 1e-10, *bufs)
    with pytest.raises(ValueError, match="^state must be"):
        dense_kernels.adagrad_dense_step(value, np.ones((4, 3)), state[:2], 0.05, 1e-10, *bufs)
    with pytest.raises(ValueError, match="^velocity must be"):
        dense_kernels.sgd_dense_step(
            value, np.ones((4, 3)), 0.1, bufs[0], momentum=0.9, velocity=np.ones(12)
        )
    np.testing.assert_array_equal(value, np.ones((4, 3)))
    np.testing.assert_array_equal(state, np.ones((4, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (0,), (0, 5), (3, 0)], ids=str)
def test_dense_steps_take_zero_d_and_zero_size_parameters(shape, dtype):
    ref = reference_backend()
    rng = np.random.default_rng(0)
    value, grad, vel = (np.asarray(rng.standard_normal(shape), dtype=dtype) for _ in range(3))
    state = np.full(shape, 0.25, dtype)
    want, vel_want, state_want = value.copy(), vel.copy(), state.copy()
    bufs = np.empty((2, 8), dtype=dtype)
    dense_kernels.sgd_dense_step(value, grad, 0.1, bufs[0], 1e-3, 0.9, vel)
    dense_kernels.adagrad_dense_step(value, grad, state, 0.05, 1e-10, *bufs)
    ref.sgd_dense_step(want, grad, 0.1, None, weight_decay=1e-3, momentum=0.9, velocity=vel_want)
    ref.adagrad_dense_step(want, grad, state_want, 0.05, 1e-10, None)
    for got, expected in ((value, want), (vel, vel_want), (state, state_want)):
        assert got.shape == shape
        np.testing.assert_array_equal(got, expected)
    if value.size:
        assert state != 0.25  # the 0-d parameter was stepped, not skipped


@pytest.mark.parametrize("dtype_name", ["float32", "float64"])
@pytest.mark.parametrize("make", [Adagrad, lambda p: SGD(p, momentum=0.9, weight_decay=1e-3)],
                         ids=["adagrad", "sgd"])
def test_optimizer_arena_is_two_blocks_whatever_the_parameter_count(make, dtype_name):
    """The dense steps' scratch is two block buffers, not a second and
    third copy of every parameter."""
    config = replace(_train_config(dtype_name), bottom_mlp=MLPSpec((512, 256, 4)))
    model = DLRM(config, rng=0)
    params = model.dense_parameters()
    block_bytes = dense_kernels.DENSE_STEP_BLOCK * model.dtype.itemsize
    assert sum(p.value.nbytes for p in params) > 4 * block_bytes
    optimizer = make(params)
    for _ in range(2):
        optimizer.dense_step()
    assert 0 < optimizer.workspace.total_bytes() <= 2 * block_bytes
