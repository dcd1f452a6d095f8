"""Layer-level backend conformance: each layer under backend X vs "numpy",
through ``set_backend``, parametrized over every registered backend.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    BCEWithLogitsLoss, ConcatInteraction, DotInteraction, MLPSpec, Workspace, get_backend,
    known_backends,
)
from repro.core.mlp import MLP, Linear, ReLU

from backend_cases import (
    BACKEND_SPECS,
    DTYPES,
    assert_backend_matches,
    assert_scalar_matches,
    make_workspace,
    rand,
)

backend_specs = pytest.mark.parametrize("spec", BACKEND_SPECS)
all_dtypes = pytest.mark.parametrize("dtype", DTYPES)


# ---------------------------------------------------------------------------
# generalized: every backend vs the numpy reference
# ---------------------------------------------------------------------------


@backend_specs
@all_dtypes
def test_linear_layer_conforms(spec, dtype):
    be = get_backend(spec)
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
    subject = Linear(7, 5, rng_a, dtype=dtype)
    ref = Linear(7, 5, rng_b, dtype=dtype)
    subject.set_backend(be, make_workspace(be))
    ref.set_backend("numpy")
    x = rand(1, (11, 7), dtype)
    g = rand(2, (11, 5), dtype)
    assert_backend_matches(be, subject.forward(x), ref.forward(x), "linear fwd")
    assert_backend_matches(be, subject.backward(g), ref.backward(g), "linear bwd")
    assert_backend_matches(be, subject.weight.grad, ref.weight.grad, "weight grad")
    assert_backend_matches(be, subject.bias.grad, ref.bias.grad, "bias grad")


@backend_specs
@all_dtypes
def test_relu_layer_conforms(spec, dtype):
    be = get_backend(spec)
    subject, ref = ReLU(), ReLU()
    subject.set_backend(be, make_workspace(be))
    ref.set_backend("numpy")
    x = rand(3, (9, 6), dtype)
    g = rand(4, (9, 6), dtype)
    assert_backend_matches(be, subject.forward(x.copy()), ref.forward(x), "relu fwd")
    assert_backend_matches(be, subject.backward(g), ref.backward(g), "relu bwd")


@backend_specs
@all_dtypes
def test_mlp_conforms(spec, dtype):
    be = get_backend(spec)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    subject = MLP(6, MLPSpec((8, 4)), rng_a, dtype=dtype)
    ref = MLP(6, MLPSpec((8, 4)), rng_b, dtype=dtype)
    subject.set_backend(be, make_workspace(be))
    ref.set_backend("numpy")
    x = rand(6, (13, 6), dtype)
    g = rand(7, (13, 4), dtype)
    assert_backend_matches(be, subject.forward(x), ref.forward(x), "mlp fwd")
    assert_backend_matches(be, subject.backward(g), ref.backward(g), "mlp bwd")


@backend_specs
@all_dtypes
@pytest.mark.parametrize("cls", [DotInteraction, ConcatInteraction])
def test_interaction_conforms(spec, cls, dtype):
    be = get_backend(spec)
    num_sparse, dim, batch = 4, 5, 7
    subject, ref = cls(num_sparse, dim), cls(num_sparse, dim)
    subject.set_backend(be, make_workspace(be))
    ref.set_backend("numpy")
    dense = rand(8, (batch, dim), dtype)
    embs = [rand(9 + i, (batch, dim), dtype) for i in range(num_sparse)]
    out_s = subject.forward(dense, embs)
    out_r = ref.forward(dense, embs)
    assert_backend_matches(be, out_s, out_r, "interaction fwd")
    g = rand(20, out_r.shape, dtype)
    gd_s, ge_s = subject.backward(g)
    gd_r, ge_r = ref.backward(g)
    assert_backend_matches(be, gd_s, gd_r, "interaction grad_dense")
    for i, (a, b) in enumerate(zip(ge_s, ge_r)):
        assert_backend_matches(be, a, b, f"interaction grad_emb[{i}]")


@backend_specs
def test_bce_loss_conforms(spec):
    be = get_backend(spec)
    subject = BCEWithLogitsLoss(workspace=make_workspace(be), backend=be)
    ref = BCEWithLogitsLoss(backend="numpy")
    logits = np.random.default_rng(10).standard_normal(31) * 6
    labels = np.random.default_rng(11).integers(0, 2, size=31)
    assert_scalar_matches(
        be, subject.forward(logits, labels), ref.forward(logits, labels), "bce loss"
    )
    assert_backend_matches(be, subject.backward(), ref.backward(), "bce grad")


def test_bce_loss_fused_matches_naive():
    fused = BCEWithLogitsLoss(workspace=Workspace())
    naive = BCEWithLogitsLoss()
    logits = np.random.default_rng(10).standard_normal(31) * 6
    labels = np.random.default_rng(11).integers(0, 2, size=31)
    assert fused.forward(logits, labels) == naive.forward(logits, labels)
    assert np.array_equal(fused.backward(), naive.backward())


# ---------------------------------------------------------------------------
# which kernel runs is decided once, at bind time, between two residents
# ---------------------------------------------------------------------------


def _standalone_layers():
    rng = np.random.default_rng(0)
    return [Linear(3, 2, rng), ReLU(), DotInteraction(2, 3), ConcatInteraction(2, 3)]


def test_standalone_layers_run_the_reference():
    for layer in _standalone_layers() + [BCEWithLogitsLoss()]:
        assert layer.backend.name == "numpy" and layer.workspace is None


def test_arena_backend_without_an_arena_is_refused_at_bind_time():
    for layer in _standalone_layers():
        with pytest.raises(ValueError, match="'fused'.*arena"):
            layer.set_backend("fused", None)
        assert layer.backend.name == "numpy"  # the refused bind changed nothing
    with pytest.raises(ValueError, match="'fused'.*arena"):
        BCEWithLogitsLoss(backend="fused")


def test_two_backends_and_an_unknown_name_lists_them(tiny_config):
    assert known_backends() == ("numpy", "fused")
    with pytest.raises(ValueError, match=r"'threaded'.*\['fused', 'numpy'\]"):
        replace(tiny_config, backend='threaded')  # the name PR 22 retired


def test_linear_dtype_mismatch_is_an_error_under_an_arena_backend():
    """Arena kernels write ``out=`` buffers of the weight dtype, where numpy
    would cast a wider operand down in silence; the reference promotes."""
    x32, x64 = rand(1, (5, 3), np.float32), rand(1, (5, 3), np.float64)
    g32, g64 = rand(2, (5, 2), np.float32), rand(2, (5, 2), np.float64)
    linear = Linear(3, 2, np.random.default_rng(0), dtype=np.float32)
    assert linear.forward(x64).dtype == linear.backward(g64).dtype == np.float64
    linear.set_backend("fused", Workspace())
    with pytest.raises(TypeError, match="float64.*float32"):
        linear.forward(x64)
    linear.forward(x32)
    with pytest.raises(TypeError, match="float64.*float32"):
        linear.backward(g64)
    assert linear.backward(g32).dtype == np.float32  # the forward is still pending


@pytest.mark.parametrize("cls", [DotInteraction, ConcatInteraction])
def test_interaction_dtype_mismatch_is_an_error_under_an_arena_backend(cls):
    dense = rand(1, (5, 3), np.float32)
    embs = [rand(2, (5, 3), np.float64), rand(3, (5, 3), np.float64)]
    interaction = cls(2, 3)
    assert interaction.forward(dense, embs).dtype == np.float64
    interaction.set_backend("fused", Workspace())
    for pooled in (embs, np.stack(embs)):
        with pytest.raises(TypeError, match="float64.*float32"):
            interaction.forward(dense, pooled)
