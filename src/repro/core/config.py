"""Model architecture configuration shared by the numpy DLRM and the perf model.

The paper (Section III) enumerates the model-architecture knobs that drive
training efficiency: dense/sparse feature counts, per-table hash sizes,
lookups per table (pooling factor), feature-interaction type, MLP dimensions
and batch size.  ``ModelConfig`` captures exactly those knobs so that the
functional implementation (:mod:`repro.core.model`) and the analytical
performance model (:mod:`repro.perf`) consume one description.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

__all__ = [
    "InteractionType",
    "PoolingType",
    "TableSpec",
    "MLPSpec",
    "ModelConfig",
    "uniform_tables",
    "merge_shared_tables",
]

#: Bytes per FP32 element; the paper's production models train in FP32 (§VI).
FP32_BYTES = 4


class InteractionType(enum.Enum):
    """Feature-interaction combiner (paper §III-A.3)."""

    CONCAT = "concat"
    DOT = "dot"


class PoolingType(enum.Enum):
    """How the ``n`` looked-up embedding vectors of one sparse feature are
    aggregated into a single d-dimensional representation (paper §III-A.2)."""

    SUM = "sum"
    MEAN = "mean"


@dataclass(frozen=True)
class TableSpec:
    """One embedding table / sparse feature.

    Attributes:
        name: Identifier of the sparse feature served by this table.
        hash_size: Number of rows ``m`` (the hashing-trick modulus, §III-A.1).
        dim: Embedding dimension ``d`` (fixed across features in the paper).
        mean_lookups: Mean number of activated indices (feature length) per
            example; drives lookup cost (Figure 7).
        truncation: Optional upper bound on lookups per example (§III-A.2,
            "truncation size").  ``None`` means unbounded.
    """

    name: str
    hash_size: int
    dim: int = 64
    mean_lookups: float = 1.0
    truncation: int | None = None

    def __post_init__(self) -> None:
        if self.hash_size < 1:
            raise ValueError(f"hash_size must be >= 1, got {self.hash_size}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.mean_lookups < 0:
            raise ValueError(f"mean_lookups must be >= 0, got {self.mean_lookups}")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")

    @property
    def effective_mean_lookups(self) -> float:
        """Mean lookups after truncation is applied."""
        if self.truncation is None:
            return self.mean_lookups
        return min(self.mean_lookups, float(self.truncation))

    @property
    def num_parameters(self) -> int:
        """Learned parameters in this table (``m x d``)."""
        return self.hash_size * self.dim

    @property
    def size_bytes(self) -> int:
        """FP32 weight footprint of the table."""
        return self.num_parameters * FP32_BYTES


@dataclass(frozen=True)
class MLPSpec:
    """A stack of fully-connected layers.

    ``layer_sizes`` lists hidden/output widths; the input width comes from
    the surrounding model.  The paper writes a stack as ``width^num_layers``
    (e.g. ``512^3``); :meth:`from_notation` parses that form.
    """

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.layer_sizes:
            raise ValueError("MLPSpec needs at least one layer")
        if any(w < 1 for w in self.layer_sizes):
            raise ValueError(f"layer widths must be >= 1, got {self.layer_sizes}")

    @classmethod
    def from_notation(cls, notation: str) -> "MLPSpec":
        """Parse the paper's ``width^num_layers`` notation, e.g. ``"512^3"``.

        Also accepts dash-separated explicit widths, e.g. ``"512-256-512"``.
        """
        notation = notation.strip()
        if "^" in notation:
            width_s, depth_s = notation.split("^", 1)
            width, depth = int(width_s), int(depth_s)
            if depth < 1:
                raise ValueError(f"depth must be >= 1 in {notation!r}")
            return cls(tuple([width] * depth))
        return cls(tuple(int(tok) for tok in notation.split("-")))

    @property
    def depth(self) -> int:
        return len(self.layer_sizes)

    @property
    def out_features(self) -> int:
        return self.layer_sizes[-1]

    def num_parameters(self, in_features: int) -> int:
        """Weights + biases when fed ``in_features`` inputs."""
        total = 0
        prev = in_features
        for width in self.layer_sizes:
            total += prev * width + width
            prev = width
        return total

    def notation(self) -> str:
        """Inverse of :meth:`from_notation` (compact when uniform)."""
        widths = set(self.layer_sizes)
        if len(widths) == 1:
            return f"{self.layer_sizes[0]}^{self.depth}"
        return "-".join(str(w) for w in self.layer_sizes)


@dataclass(frozen=True)
class ModelConfig:
    """Complete architecture description of one recommendation model.

    Mirrors the red-highlighted configuration points of the paper's Figure 3:
    dense features, sparse features (embedding tables), feature interaction,
    bottom and top MLP stacks.
    """

    name: str
    num_dense: int
    tables: tuple[TableSpec, ...]
    bottom_mlp: MLPSpec
    top_mlp: MLPSpec
    interaction: InteractionType = InteractionType.DOT
    #: Numeric precision of the functional model's weights and activations.
    #: ``"float64"`` (default) preserves the historical bit-exact results;
    #: ``"float32"`` matches the paper's production precision (§VI) and
    #: halves memory bandwidth on the embedding/MLP hot paths.
    compute_dtype: str = "float64"
    #: Compute backend for the dense path (see :mod:`repro.core.backends`):
    #: ``"numpy"`` (naive reference, for debugging) or ``"fused"`` (the
    #: default: :mod:`repro.core.dense_kernels` through a per-model
    #: workspace arena, so the steady-state train step performs zero fresh
    #: large dense allocations; bit-identical to the reference in both
    #: compute dtypes).  Any name registered via
    #: :func:`repro.core.backends.register_backend` is accepted.  GEMM
    #: threading is the BLAS library's thread count, not a backend.
    backend: str = "fused"

    def __post_init__(self) -> None:
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError(
                f"compute_dtype must be 'float32' or 'float64', got {self.compute_dtype!r}"
            )
        from .backends import known_backends

        if self.backend not in known_backends():
            raise ValueError(
                f"unknown backend {self.backend!r}; registered: "
                f"{sorted(known_backends())}"
            )
        if self.num_dense < 0:
            raise ValueError(f"num_dense must be >= 0, got {self.num_dense}")
        if not self.tables:
            raise ValueError("ModelConfig needs at least one embedding table")
        seen: set[str] = set()
        for t in self.tables:
            if t.name in seen:
                raise ValueError(f"duplicate embedding table name {t.name!r}")
            seen.add(t.name)
        dims = {t.dim for t in self.tables}
        if len(dims) != 1:
            raise ValueError(
                f"the paper uses a fixed embedding dim d across features; got {dims}"
            )
        if self.interaction is InteractionType.DOT and self.bottom_mlp.out_features != self.embedding_dim:
            raise ValueError(
                "dot interaction requires bottom MLP output width == embedding dim "
                f"({self.bottom_mlp.out_features} != {self.embedding_dim})"
            )

    # -- derived sizes -----------------------------------------------------

    @property
    def np_dtype(self):
        """The numpy dtype implied by :attr:`compute_dtype`."""
        import numpy as np

        return np.dtype(self.compute_dtype)

    @property
    def num_sparse(self) -> int:
        """Number of sparse features (== number of embedding tables)."""
        return len(self.tables)

    @property
    def embedding_dim(self) -> int:
        return self.tables[0].dim

    @property
    def embedding_parameters(self) -> int:
        return sum(t.num_parameters for t in self.tables)

    @property
    def embedding_bytes(self) -> int:
        """Total FP32 embedding-table footprint in bytes."""
        return sum(t.size_bytes for t in self.tables)

    @property
    def mean_total_lookups(self) -> float:
        """Mean embedding lookups per example summed over all tables."""
        return sum(t.effective_mean_lookups for t in self.tables)

    @property
    def interaction_features(self) -> int:
        """Width of the feature-interaction output fed to the top MLP."""
        d = self.embedding_dim
        n = self.num_sparse + 1  # pooled embeddings plus projected dense
        if self.interaction is InteractionType.DOT:
            return d + n * (n - 1) // 2
        return n * d

    @property
    def mlp_parameters(self) -> int:
        bottom = self.bottom_mlp.num_parameters(self.num_dense)
        top = self.top_mlp.num_parameters(self.interaction_features)
        # final scoring layer to a single logit
        top += self.top_mlp.out_features + 1
        return bottom + top

    @property
    def total_parameters(self) -> int:
        return self.embedding_parameters + self.mlp_parameters

    @property
    def dense_parameter_bytes(self) -> int:
        return self.mlp_parameters * FP32_BYTES

    def with_batch_tables(self, **changes) -> "ModelConfig":
        """Return a copy with top-level fields replaced (convenience)."""
        return replace(self, **changes)

    def describe(self) -> dict[str, object]:
        """Summary dict in the shape of the paper's Table II."""
        return {
            "name": self.name,
            "num_sparse": self.num_sparse,
            "num_dense": self.num_dense,
            "embedding_gb": self.embedding_bytes / 1e9,
            "mean_lookups": self.mean_total_lookups / self.num_sparse,
            "bottom_mlp": self.bottom_mlp.notation(),
            "top_mlp": self.top_mlp.notation(),
            "interaction": self.interaction.value,
        }


def uniform_tables(
    num_tables: int,
    hash_size: int,
    dim: int = 64,
    mean_lookups: float = 1.0,
    truncation: int | None = None,
    prefix: str = "table",
) -> tuple[TableSpec, ...]:
    """Build ``num_tables`` identical tables — the paper's test-suite setup
    (§V fixes a constant hash size for all sparse features).
    """
    if num_tables < 1:
        raise ValueError(f"num_tables must be >= 1, got {num_tables}")
    return tuple(
        TableSpec(
            name=f"{prefix}_{i}",
            hash_size=hash_size,
            dim=dim,
            mean_lookups=mean_lookups,
            truncation=truncation,
        )
        for i in range(num_tables)
    )


def merge_shared_tables(
    tables: tuple[TableSpec, ...],
    groups: tuple[tuple[str, ...], ...],
) -> tuple[tuple[TableSpec, ...], dict[str, str]]:
    """Merge groups of semantically-similar sparse features onto shared
    physical tables (paper §III-A.2: "sparse features can be configured to
    share embedding tables to reduce the overall size of the model").

    Each group becomes one physical table named after its first feature,
    adopting the group's *maximum* hash size ("this requires a shared hash
    sizing") and the *sum* of lookup rates (every feature still performs
    its own lookups against the shared rows).  Returns the physical table
    specs plus the feature-name -> physical-table mapping consumed by
    :class:`~repro.core.embedding.EmbeddingBagCollection` and by capacity
    planning.

    Raises:
        ValueError: on unknown feature names, singleton/overlapping groups,
            or mixed embedding dimensions within a group.
    """
    by_name = {t.name: t for t in tables}
    seen: set[str] = set()
    for group in groups:
        if len(group) < 2:
            raise ValueError(f"sharing group {group} needs at least two features")
        for name in group:
            if name not in by_name:
                raise ValueError(f"unknown feature {name!r} in sharing group")
            if name in seen:
                raise ValueError(f"feature {name!r} appears in multiple groups")
            seen.add(name)
        dims = {by_name[name].dim for name in group}
        if len(dims) != 1:
            raise ValueError(f"sharing group {group} mixes embedding dims {dims}")

    feature_to_table: dict[str, str] = {}
    physical: list[TableSpec] = []
    grouped_by_leader = {group[0]: group for group in groups}
    for spec in tables:
        if spec.name in seen and spec.name not in grouped_by_leader:
            # non-leader member: points at its leader's physical table
            continue
        if spec.name in grouped_by_leader:
            group = grouped_by_leader[spec.name]
            members = [by_name[name] for name in group]
            truncations = [m.truncation for m in members if m.truncation is not None]
            merged = TableSpec(
                name=spec.name,
                hash_size=max(m.hash_size for m in members),
                dim=spec.dim,
                mean_lookups=sum(m.mean_lookups for m in members),
                truncation=max(truncations) if truncations else None,
            )
            physical.append(merged)
            for name in group:
                feature_to_table[name] = spec.name
        else:
            physical.append(spec)
            feature_to_table[spec.name] = spec.name
    return tuple(physical), feature_to_table
