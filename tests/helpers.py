"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import (
    DLRM,
    Adagrad,
    Batch,
    BCEWithLogitsLoss,
    InteractionType,
    MLPSpec,
    ModelConfig,
    RaggedIndices,
    Trainer,
    uniform_tables,
)
from repro.data import SyntheticDataGenerator


def make_batch(config: ModelConfig, batch_size: int, seed: int = 0) -> Batch:
    """Deterministic batch for a config (labels are coin flips)."""
    gen = SyntheticDataGenerator(config, rng=seed)
    return gen.batch(batch_size)


def backend_sweep_point(backend: str, batch_seed: int, steps: int = 3,
                        batch_size: int = 16) -> dict:
    """Module-level (hence picklable) sweep grid point: a short deterministic
    training run under the named compute backend.

    Used by the conformance suite to pin that a :class:`SweepRunner`
    process-pool sweep round-trips the selected backend and reproduces the
    serial ``"numpy"`` results bit-for-bit.
    """
    config = ModelConfig(
        name="sweep-backend",
        num_dense=4,
        tables=uniform_tables(3, 32, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((6, 4)),
        top_mlp=MLPSpec((4,)),
        interaction=InteractionType.DOT,
        backend=backend,
    )
    model = DLRM(config, rng=0)
    trainer = Trainer(
        model,
        lambda m: Adagrad(
            m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
        ),
    )
    losses = [
        trainer.train_step(make_batch(config, batch_size, seed=batch_seed + i))
        for i in range(steps)
    ]
    preds = model.predict_proba(make_batch(config, batch_size, seed=batch_seed + steps))
    return {"backend": model.backend.name, "losses": losses, "preds": preds}


def numeric_grad_scalar(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. array ``x``.

    Mutates ``x`` in place during probing, restoring each entry.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def simple_ragged(per_sample: list[list[int]]) -> RaggedIndices:
    return RaggedIndices.from_lists([np.array(s, dtype=np.int64) for s in per_sample])


@dataclass(frozen=True)
class GradCheckResult:
    """Worst-case gradient errors, per parameter tensor."""

    max_abs_error: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(err <= self.tolerance for err in self.max_abs_error.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.max_abs_error, key=self.max_abs_error.get)
        return name, self.max_abs_error[name]


def check_gradients(
    model: DLRM,
    batch: Batch,
    include_embeddings: bool = True,
    eps: float = 1e-6,
    tolerance: float = 1e-5,
    bias_nudge: float = 0.05,
    seed: int = 0,
) -> GradCheckResult:
    """Verify the model's analytic gradients on one batch: the worst
    absolute error of each parameter's gradient against central finite
    differences.

    ``bias_nudge`` perturbs zero-initialized biases first: a freshly-built
    model can have pre-activations sitting exactly on the ReLU kink, where
    the analytic subgradient and a central difference legitimately differ.

    Warning: cost is O(parameters x batch forward passes) — use a tiny
    model and batch.
    """
    if eps <= 0 or tolerance <= 0:
        raise ValueError("eps and tolerance must be positive")
    if bias_nudge:
        rng = np.random.default_rng(seed)
        for p in model.dense_parameters():
            if "bias" in p.name:
                p.value += rng.normal(0.0, bias_nudge, size=p.value.shape)
    crit = BCEWithLogitsLoss()

    def loss() -> float:
        value = crit.forward(model.forward(batch), batch.labels)
        model._discard_forward_state()
        return value

    errors: dict[str, float] = {}
    for p in model.dense_parameters():
        expected = numeric_grad_scalar(loss, p.value, eps)
        model.zero_grad()
        crit.forward(model.forward(batch), batch.labels)
        model.backward(crit.backward())
        errors[p.name] = float(np.abs(p.grad - expected).max())
    if include_embeddings:
        for table in model.embedding_tables():
            expected = numeric_grad_scalar(loss, table.weight, eps)
            model.zero_grad()
            crit.forward(model.forward(batch), batch.labels)
            model.backward(crit.backward())
            grad = table.pop_grad()
            dense = np.zeros_like(table.weight)
            if grad is not None:
                dense[grad.rows] = grad.values
            errors[f"table/{table.spec.name}"] = float(
                np.abs(dense - expected).max()
            )
    return GradCheckResult(max_abs_error=errors, tolerance=tolerance)
