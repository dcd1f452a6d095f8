"""The paper's model family: a from-scratch numpy DLRM.

Public surface:

* :class:`ModelConfig` / :class:`TableSpec` / :class:`MLPSpec` — architecture
  description shared with the performance model.
* :class:`DLRM` / :class:`Batch` — the functional model.
* :class:`SGD` / :class:`Adagrad` — sparse-aware optimizers.
* :class:`Trainer` / :func:`evaluate` — training loop and metrics.
"""

from .config import (
    FP32_BYTES,
    InteractionType,
    MLPSpec,
    ModelConfig,
    PoolingType,
    TableSpec,
    merge_shared_tables,
    uniform_tables,
)
from .embedding import (
    EmbeddingBagCollection,
    EmbeddingTable,
    RaggedIndices,
    SparseGrad,
    hash_raw_ids,
)
from . import backends, dense_kernels, kernels
from .backends import (
    Backend,
    get_backend,
    known_backends,
    register_backend,
)
from .dense_kernels import Workspace, stable_sigmoid
from .interaction import ConcatInteraction, DotInteraction, make_interaction
from .loss import BCEWithLogitsLoss, sigmoid
from .metrics import (
    accuracy,
    auc,
    calibration,
    log_loss,
    ne_gap_percent,
    normalized_entropy,
)
from .mlp import MLP, Linear, Parameter, ReLU, Sigmoid
from .model import Batch, DLRM
from .optim import SGD, Adagrad
from .checkpoint import (
    DirtyRowTracker,
    apply_partial_checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
    save_partial_checkpoint,
)
from .quantization import (
    QuantizedEmbeddingTable,
    dequantize_rows,
    quantization_error,
    quantize_rows,
    quantized_table_bytes,
)
from .training import Trainer, TrainResult, evaluate
from .tuning import SearchResult, Trial, bayesian_search, grid_search, random_search

__all__ = [
    "kernels",
    "dense_kernels",
    "backends",
    "Backend",
    "register_backend",
    "get_backend",
    "known_backends",
    "Workspace",
    "stable_sigmoid",
    "FP32_BYTES",
    "InteractionType",
    "PoolingType",
    "TableSpec",
    "MLPSpec",
    "ModelConfig",
    "uniform_tables",
    "merge_shared_tables",
    "RaggedIndices",
    "SparseGrad",
    "EmbeddingTable",
    "EmbeddingBagCollection",
    "hash_raw_ids",
    "ConcatInteraction",
    "DotInteraction",
    "make_interaction",
    "BCEWithLogitsLoss",
    "sigmoid",
    "log_loss",
    "normalized_entropy",
    "calibration",
    "auc",
    "accuracy",
    "ne_gap_percent",
    "MLP",
    "Linear",
    "Parameter",
    "ReLU",
    "Sigmoid",
    "Batch",
    "DLRM",
    "SGD",
    "Adagrad",
    "Trainer",
    "TrainResult",
    "evaluate",
    "Trial",
    "SearchResult",
    "grid_search",
    "random_search",
    "bayesian_search",
    "quantize_rows",
    "dequantize_rows",
    "quantization_error",
    "quantized_table_bytes",
    "QuantizedEmbeddingTable",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_bytes",
    "DirtyRowTracker",
    "save_partial_checkpoint",
    "apply_partial_checkpoint",
]
