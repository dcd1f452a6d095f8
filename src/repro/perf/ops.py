"""Operator-level cost catalog for one DLRM training iteration.

Every throughput number in the paper is, at bottom, a composition of a small
set of operators: the two MLP stacks (forward + backward), the feature
interaction, embedding lookups/pooling, embedding gradient scatter +
optimizer update, and the communication volumes that glue distributed
pieces together.  This module turns a :class:`~repro.core.config.ModelConfig`
plus a batch size into :class:`~repro.hardware.device.OpCost` values and
byte volumes; :mod:`repro.perf.pipeline` maps them onto platforms.

Conventions: FP32 everywhere (the production models use single precision,
§VI); a backward matmul pass costs ~2x the forward FLOPs; activations and
weights are each read/written once per pass.
"""

from __future__ import annotations

from ..core.config import FP32_BYTES, InteractionType, MLPSpec, ModelConfig
from ..hardware.device import OpCost

__all__ = [
    "mlp_flops",
    "mlp_bytes",
    "mlp_cost",
    "interaction_cost",
    "embedding_lookup_cost",
    "embedding_update_cost",
    "dense_optimizer_cost",
    "dense_param_bytes",
    "pooled_embedding_bytes",
    "lookup_request_bytes",
    "activation_working_set_bytes",
    "KERNELS_PER_LAYER_FWD",
    "KERNELS_PER_LAYER_BWD",
    "EMB_RANDOM_ACCESS_PENALTY",
]

#: Kernel launches per linear layer (matmul + bias/activation fused-ish).
KERNELS_PER_LAYER_FWD = 2
#: Backward needs grads w.r.t. input, weights, and bias.
KERNELS_PER_LAYER_BWD = 3
#: Random row gathers waste cache lines / DRAM pages relative to streaming
#: reads; charge extra bytes for the irregular access pattern the paper
#: calls out ("often irregular vector accesses", §I).
EMB_RANDOM_ACCESS_PENALTY = 2.0
#: Adagrad reads+writes the weight row and its accumulator row.
SPARSE_OPTIMIZER_TOUCHES = 4


def _mlp_layer_dims(in_features: int, spec: MLPSpec) -> list[tuple[int, int]]:
    dims = []
    prev = in_features
    for width in spec.layer_sizes:
        dims.append((prev, width))
        prev = width
    return dims


def mlp_flops(in_features: int, spec: MLPSpec, batch: int, backward: bool) -> float:
    """GEMM FLOPs of one pass over the stack (2*m*n*k per matmul)."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    fwd = sum(2.0 * batch * i * o for i, o in _mlp_layer_dims(in_features, spec))
    return fwd * (2.0 if backward else 1.0)


def mlp_bytes(in_features: int, spec: MLPSpec, batch: int, backward: bool) -> float:
    """Bytes moved: weights once per pass, activations in and out per layer."""
    total = 0.0
    for i, o in _mlp_layer_dims(in_features, spec):
        weights = i * o * FP32_BYTES
        acts = batch * (i + o) * FP32_BYTES
        total += weights + acts
    return total * (2.0 if backward else 1.0)


def mlp_cost(in_features: int, spec: MLPSpec, batch: int, backward: bool) -> OpCost:
    kernels_per_layer = KERNELS_PER_LAYER_BWD if backward else KERNELS_PER_LAYER_FWD
    return OpCost(
        flops=mlp_flops(in_features, spec, batch, backward),
        bytes=mlp_bytes(in_features, spec, batch, backward),
        kernels=spec.depth * kernels_per_layer,
    )


def interaction_cost(model: ModelConfig, batch: int, backward: bool) -> OpCost:
    """Cost of the feature-interaction combiner.

    Concat is pure data movement; pairwise dot is a small batched GEMM over
    the ``(n+1, d)`` stack.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    d = model.embedding_dim
    n_vec = model.num_sparse + 1
    stack_bytes = batch * n_vec * d * FP32_BYTES
    if model.interaction is InteractionType.CONCAT:
        cost = OpCost(flops=0.0, bytes=2.0 * stack_bytes, kernels=1)
    else:
        flops = 2.0 * batch * n_vec * n_vec * d  # T @ T^T
        out_bytes = batch * model.interaction_features * FP32_BYTES
        cost = OpCost(flops=flops, bytes=2.0 * stack_bytes + out_bytes, kernels=2)
    if backward:
        cost = OpCost(flops=2.0 * cost.flops, bytes=2.0 * cost.bytes, kernels=cost.kernels + 1)
    return cost


def embedding_lookup_cost(model: ModelConfig, batch: int) -> OpCost:
    """Gather + pool all sparse features for a batch.

    Bytes are dominated by the random row gathers:
    ``batch * sum(mean_lookups) * d`` rows read, with the irregular-access
    penalty, plus the pooled outputs written.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    d = model.embedding_dim
    gathered = batch * model.mean_total_lookups * d * FP32_BYTES
    pooled = batch * model.num_sparse * d * FP32_BYTES
    flops = batch * model.mean_total_lookups * d  # additions while pooling
    return OpCost(
        flops=flops,
        bytes=gathered * EMB_RANDOM_ACCESS_PENALTY + pooled,
        kernels=model.num_sparse,
    )


def embedding_update_cost(model: ModelConfig, batch: int) -> OpCost:
    """Scatter output grads into rows and apply a sparse Adagrad step.

    Each looked-up row is touched ``SPARSE_OPTIMIZER_TOUCHES`` times
    (read/write weight + accumulator)."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    d = model.embedding_dim
    row_bytes = batch * model.mean_total_lookups * d * FP32_BYTES
    flops = 4.0 * batch * model.mean_total_lookups * d  # square, add, sqrt, axpy
    return OpCost(
        flops=flops,
        bytes=row_bytes * SPARSE_OPTIMIZER_TOUCHES * EMB_RANDOM_ACCESS_PENALTY / 2.0,
        kernels=model.num_sparse,
    )


def dense_param_bytes(model: ModelConfig) -> float:
    """FP32 bytes of the data-parallel (MLP) parameters — the all-reduce /
    dense-PS sync volume per iteration."""
    return float(model.dense_parameter_bytes)


def dense_optimizer_cost(model: ModelConfig) -> OpCost:
    """Dense Adagrad step: read grad + weight + state, write weight + state."""
    param_bytes = dense_param_bytes(model)
    return OpCost(flops=4.0 * model.mlp_parameters, bytes=5.0 * param_bytes, kernels=4)


def pooled_embedding_bytes(model: ModelConfig, batch: int) -> float:
    """Bytes of all pooled embedding vectors for a batch — the forward
    all-to-all / remote-response volume (one d-vector per table per example).
    The backward pass moves the same volume of gradients."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return float(batch * model.num_sparse * model.embedding_dim * FP32_BYTES)


def lookup_request_bytes(model: ModelConfig, batch: int) -> float:
    """Bytes of sparse indices shipped to wherever the tables live
    (8-byte ids, one per lookup)."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return float(batch * model.mean_total_lookups * 8)


def activation_working_set_bytes(model: ModelConfig, batch: int) -> float:
    """Rough per-batch activation footprint on a trainer.

    Drives the CPU cache-spill penalty: once the working set overflows the
    last-level cache, effective bandwidth (and with it CPU throughput)
    degrades — the mechanism behind the CPU batch-size optimum in Fig 11.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    widths = (
        model.num_dense
        + sum(model.bottom_mlp.layer_sizes)
        + model.num_sparse * model.embedding_dim
        + model.interaction_features
        + sum(model.top_mlp.layer_sizes)
    )
    return float(batch * widths * FP32_BYTES)
