"""End-to-end training conformance: full Trainer runs per backend.

* The generalized per-backend run compares every backend spec against a
  ``"numpy"`` model trained on the same batches — bit-identically for
  bit-identical backends, within tolerance otherwise.
* Default construction (no backend named anywhere) is the fused backend
  and stays pinned bit-for-bit to ``"numpy"``, both dtypes, both optimizers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DLRM,
    Adagrad,
    InteractionType,
    MLPSpec,
    ModelConfig,
    SGD,
    Trainer,
    get_backend,
    uniform_tables,
)

from backend_cases import BACKEND_SPECS, assert_backend_matches
from helpers import make_batch


def _train_config(dtype_name: str, interaction=InteractionType.DOT) -> ModelConfig:
    return ModelConfig(
        name="conformance-e2e",
        num_dense=6,
        tables=uniform_tables(4, 64, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((6,)),
        interaction=interaction,
        compute_dtype=dtype_name,
    )


def _run_training(config: ModelConfig, batches, backend, optimizer: str):
    model = DLRM(config, rng=0, backend=backend)
    if optimizer == "adagrad":
        factory = lambda m: Adagrad(  # noqa: E731
            m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
        )
    else:
        factory = lambda m: SGD(  # noqa: E731
            m.dense_parameters(), m.embedding_tables(),
            lr=0.05, momentum=0.9, weight_decay=1e-4, backend=m.backend,
        )
    trainer = Trainer(model, factory)
    losses = [trainer.train_step(b) for b in batches]
    return losses, model


# ---------------------------------------------------------------------------
# generalized: every backend vs the numpy reference, end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", BACKEND_SPECS)
@pytest.mark.parametrize("dtype_name", ["float64", "float32"])
@pytest.mark.parametrize("optimizer", ["adagrad", "sgd"])
def test_end_to_end_training_conforms(spec, dtype_name, optimizer):
    be = get_backend(spec)
    config = _train_config(dtype_name)
    batches = [make_batch(config, 32, seed=s) for s in range(4)]

    losses_b, model_b = _run_training(config, batches, be, optimizer)
    losses_n, model_n = _run_training(config, batches, "numpy", optimizer)

    if be.bit_identical:
        assert losses_b == losses_n
    else:
        # the float64 loss scalar inherits the model dtype's rounding
        rtol, atol = be.tolerance(np.dtype(dtype_name))
        np.testing.assert_allclose(losses_b, losses_n, rtol=rtol, atol=atol)
    for a, b in zip(model_b.get_dense_state(), model_n.get_dense_state()):
        assert_backend_matches(be, a, b, "dense state")
    for ta, tb in zip(model_b.embedding_tables(), model_n.embedding_tables()):
        assert_backend_matches(be, ta.weight, tb.weight, "table weight")
    # and inference agrees too
    preds_b = model_b.predict_proba(batches[0])
    preds_n = model_n.predict_proba(batches[0])
    assert_backend_matches(be, preds_b, preds_n, "predict_proba")


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_concat_interaction_training_conforms(spec):
    be = get_backend(spec)
    config = _train_config("float64", interaction=InteractionType.CONCAT)
    batches = [make_batch(config, 24, seed=s) for s in range(3)]
    losses_b, model_b = _run_training(config, batches, be, "adagrad")
    losses_n, model_n = _run_training(config, batches, "numpy", "adagrad")
    if be.bit_identical:
        assert losses_b == losses_n
    else:
        rtol, atol = be.tolerance(np.float64)
        np.testing.assert_allclose(losses_b, losses_n, rtol=rtol, atol=atol)
    assert_backend_matches(
        be, model_b.predict_proba(batches[0]), model_n.predict_proba(batches[0]),
        "concat predict_proba",
    )


# ---------------------------------------------------------------------------
# default construction: nobody names a backend, and it is still the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype_name", ["float64", "float32"])
@pytest.mark.parametrize("optimizer", ["adagrad", "sgd"])
def test_end_to_end_training_bit_identical(dtype_name, optimizer):
    config = _train_config(dtype_name)
    batches = [make_batch(config, 32, seed=s) for s in range(6)]

    def run(**backend):
        model = DLRM(config, rng=0, **backend)
        params = (model.dense_parameters(), model.embedding_tables())
        if optimizer == "adagrad":
            opt = Adagrad(*params, lr=0.05, **backend)
        else:
            opt = SGD(*params, lr=0.05, momentum=0.9, weight_decay=1e-4, **backend)
        trainer = Trainer(model, lambda m: opt)
        return [trainer.train_step(b) for b in batches], model, opt

    losses_d, model_d, opt_d = run()
    losses_n, model_n, _ = run(backend="numpy")
    assert model_d.backend.name == opt_d.backend.name == "fused"
    assert losses_d == losses_n
    for a, b in zip(model_d.get_dense_state(), model_n.get_dense_state()):
        assert np.array_equal(a, b)
    for ta, tb in zip(model_d.embedding_tables(), model_n.embedding_tables()):
        assert np.array_equal(ta.weight, tb.weight)
    assert np.array_equal(
        model_d.predict_proba(batches[0]), model_n.predict_proba(batches[0])
    )
