"""Embedding tables with the hashing trick, pooled multi-hot lookups and
sparse gradients.

This module implements the sparse half of the recommendation model
(paper §III-A.1/2): each sparse feature owns (or shares) an embedding table
of ``hash_size x dim`` rows; a training example activates ``n`` indices whose
rows are fetched and pooled (summed or averaged) into one d-dimensional
vector, optionally truncating ``n`` to bound outliers.

Gradients are kept *sparse*: a backward pass records only the touched rows,
because production tables have millions of rows (Figure 6 shows hash sizes
up to 20M) and a dense gradient would be both wrong in spirit and infeasible
in memory.

Hot paths (pooling, coalescing, truncation, bounds checks) are implemented
by the vectorized kernels in :mod:`repro.core.kernels`; features sharing a
physical table are gathered in **one** batched pass
(:meth:`EmbeddingTable.forward_batched`).

Hand-off to the interaction: :meth:`EmbeddingBagCollection.forward` pools
every table straight into its slab of **one** feature-major ``(features,
batch, dim)`` array, features in ``feature_names`` order — slab ``i`` is the
C-contiguous ``(batch, dim)`` block the CSR kernel needs as ``out`` and the
interaction reads the whole array (:func:`repro.core.dense_kernels.
feature_major`), so a pooled value is written once and moved once.  The
gradients come back the same way: the interaction's backward returns slabs
of a second feature-major array, so :meth:`EmbeddingTable.backward` is
handed a contiguous gradient.

A collection on a workspace-backed backend (:meth:`EmbeddingBagCollection.
set_backend`, which :class:`~repro.core.model.DLRM` calls as it does for
every dense layer) takes that array, and its tables their gradient buffers,
from the model's arena (:class:`~repro.core.dense_kernels.Workspace`), under
the arena's lifetime contract: the pooled outputs returned by the
collection's ``forward`` are slabs of one buffer that lives until the
collection's next forward (the dot interaction's backward re-reads it, so
none may come between a training forward and its backward); the gradient
slabs live until the interaction's next backward; a pending
:class:`SparseGrad` 's ``values`` live until the first ``backward`` after the
pending list was emptied — by ``zero_grad``, or by ``pop_grad``, whose
caller must be done with (or have copied) what it popped by then.  Gradients
pending together never share a buffer.  Without a workspace — and from a
table called on its own — results are fresh arrays, bit-identical ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from . import lanes as lanes_mod
from .backends import Backend, get_backend
from .config import PoolingType, TableSpec
from .dense_kernels import Workspace
from .lanes import Lanes, spread

__all__ = [
    "RaggedIndices",
    "SparseGrad",
    "TablePlan",
    "PooledFeatures",
    "EmbeddingTable",
    "EmbeddingBagCollection",
    "hash_raw_ids",
]

# Knuth's multiplicative constant; gives a cheap, deterministic, well-mixing
# hash for the hashing trick without pulling in an external dependency.
_HASH_MULTIPLIER = np.uint64(2654435761)
_HASH_SHIFT = np.uint64(16)

#: Elements drawn per block of table initialisation: a 512 KiB float64
#: transient (1024 rows at dim 64) that malloc recycles; from 2 MB up every
#: block is mmapped afresh and costs what the one-shot draw did.
_INIT_BLOCK_ELEMS = 1 << 16

#: Bit generators whose ``advance(n)`` skips exactly the ``n`` 64-bit
#: words that ``n`` elements of ``uniform`` consume (Philox's counter
#: steps over blocks of four words; MT19937 and SFC64 have no advance).
_SKIPPABLE = (np.random.PCG64, np.random.PCG64DXSM)

#: Arena keys: the indicator's all-ones vector, shared by every table of a
#: model (never written after its fill), and the collection's feature-major
#: pooled-output array.
_ONES_KEY = "emb.ones"
_POOLED_KEY = "emb.pooled"


def _skipped(state: dict, words: int) -> np.random.Generator:
    """A generator in the state a bit generator in ``state`` (a
    :data:`_SKIPPABLE` one) reaches after ``words`` 64-bit words: advanced
    by them, with the buffered 32-bit half-word that ``advance`` drops put
    back (drawing doubles neither reads nor writes it)."""
    bits = getattr(np.random, state["bit_generator"])()
    bits.state = state
    bits.advance(words)
    moved = bits.state
    moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = moved
    return np.random.Generator(bits)


def _draw_uniform(weight: np.ndarray, rng: np.random.Generator, scale: float) -> None:
    """Fill ``weight`` with ``rng.uniform(-scale, scale)``, leaving ``weight``
    and ``rng`` exactly as one whole-table draw would.

    Rows are drawn block by block into the final-dtype array (no
    table-sized float64 transient to fault in and unmap), and row ranges
    go on the lanes (:func:`~repro.core.lanes.on_rows`): ``uniform``
    consumes one 64-bit word per element, so the lane whose rows start at
    ``lo`` draws from the caller's stream skipped ahead by ``lo x dim``
    words (:func:`_skipped`), and the caller's generator is then set to
    where the whole draw ends.  Lane 0 draws on the caller's generator;
    at width 1 that is the serial loop.  A bit generator outside
    :data:`_SKIPPABLE` draws on one lane."""
    rows, dim = weight.shape
    bits = rng.bit_generator
    start = bits.state
    step = max(1, _INIT_BLOCK_ELEMS // dim)

    def draw(lo: int, hi: int) -> None:
        gen = rng if lo == 0 else _skipped(start, lo * dim)
        for a in range(lo, hi, step):
            block = weight[a : min(a + step, hi)]
            block[...] = gen.uniform(-scale, scale, size=block.shape)

    if lanes_mod.on_rows(draw, rows, weight.size if type(bits) in _SKIPPABLE else 0) > 1:
        bits.state = _skipped(start, weight.size).bit_generator.state


def hash_raw_ids(raw_ids: np.ndarray, hash_size: int) -> np.ndarray:
    """Map arbitrary non-negative integer ids into ``[0, hash_size)``.

    This is the hash function ``h_m: S_X -> {0..m-1}`` of paper §III-A.1.
    Deterministic, vectorized, and collision-prone by design for small
    ``hash_size`` (the accuracy/size trade-off the paper discusses).

    The output is range-safe by construction; wrap it in
    ``RaggedIndices(values, offsets, safe_bound=hash_size)`` to let the
    lookup skip its bounds re-scan.
    """
    if hash_size < 1:
        raise ValueError(f"hash_size must be >= 1, got {hash_size}")
    ids = np.asarray(raw_ids, dtype=np.uint64)
    mixed = (ids * _HASH_MULTIPLIER) ^ (ids >> _HASH_SHIFT)
    return (mixed % np.uint64(hash_size)).astype(np.int64)


@dataclass(frozen=True)
class RaggedIndices:
    """Multi-hot sparse input for one feature over a batch.

    ``values[offsets[i]:offsets[i+1]]`` are the activated indices of sample
    ``i`` — the standard jagged/CSR layout.

    ``safe_bound``, when set, asserts that every value is already known to
    lie in ``[0, safe_bound)`` — e.g. because the values came from
    :func:`hash_raw_ids` — which lets :class:`EmbeddingTable` skip its
    defensive bounds re-scan for tables with ``hash_size >= safe_bound``.
    """

    values: np.ndarray  # int64, shape (total_lookups,)
    offsets: np.ndarray  # int64, shape (batch+1,), offsets[0] == 0
    safe_bound: int | None = None  # values proven to be in [0, safe_bound)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D and start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if offsets[-1] != len(values):
            raise ValueError(
                f"offsets[-1]={offsets[-1]} must equal len(values)={len(values)}"
            )

    @classmethod
    def from_lists(
        cls,
        per_sample: list[np.ndarray | list[int]],
        safe_bound: int | None = None,
    ) -> "RaggedIndices":
        """Build from one index list per sample."""
        arrays = [np.asarray(a, dtype=np.int64) for a in per_sample]
        lengths = np.array([len(a) for a in arrays], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        values = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(values=values, offsets=offsets, safe_bound=safe_bound)

    @property
    def batch_size(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_lookups(self) -> int:
        return int(self.offsets[-1])

    def lengths(self) -> np.ndarray:
        """Number of activated indices per sample (the feature lengths of Fig 7)."""
        return np.diff(self.offsets)

    def sample(self, i: int) -> np.ndarray:
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def truncate(self, max_per_sample: int) -> "RaggedIndices":
        """Cap each sample at ``max_per_sample`` lookups (paper's truncation size).

        Vectorized (see :func:`repro.core.kernels.truncate_ragged`); the
        ``safe_bound`` certificate survives truncation since truncation only
        drops values.
        """
        values, offsets = kernels.truncate_ragged(
            self.values, self.offsets, max_per_sample
        )
        return RaggedIndices(values=values, offsets=offsets, safe_bound=self.safe_bound)


@dataclass
class SparseGrad:
    """Coalesced sparse gradient of one embedding table.

    ``rows`` are unique row indices; ``values[i]`` is the summed gradient for
    ``rows[i]``.  Sparse-aware optimizers (:mod:`repro.core.optim`) consume
    this directly, updating only the touched rows.
    """

    rows: np.ndarray  # int64, shape (k,)
    values: np.ndarray  # float, shape (k, dim)

    @classmethod
    def coalesce(cls, indices: np.ndarray, grads: np.ndarray) -> "SparseGrad":
        """Sum duplicate row contributions into one entry per unique row.

        Sort-based group reduction (:func:`repro.core.kernels.coalesce_rows`)
        — agrees with the historical ``np.unique`` + ``np.add.at``
        implementation to ~1 ULP and preserves the gradient dtype (float32
        tables produce float32 sparse grads).
        """
        rows, summed = kernels.coalesce_rows(indices, grads)
        return cls(rows=rows, values=summed)

    @property
    def nnz_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class TablePlan:
    """Model-state-independent precompute of one fused table lookup.

    Everything :meth:`EmbeddingTable.forward_batched` and
    :meth:`EmbeddingTable.backward` need that does *not* depend on the
    weights: the prepared (truncated, bounds-checked) index streams, the
    fused multi-feature CSR layout, per-sample lengths, and the per-feature
    backward :class:`~repro.core.kernels.CoalescePlan`.  A plan built ahead
    of the step and applied later produces bit-identical results to the
    inline path, because the inline path *is* ``plan_forward`` + apply —
    one implementation, not two.
    """

    #: Prepared per-feature index streams (truncation + bounds applied).
    prepared: tuple[RaggedIndices, ...]
    #: Per-feature per-sample lookup counts (MEAN divisors / backward).
    lengths: tuple[np.ndarray, ...]
    #: Per-feature backward coalesce plans (stable argsort and the sample
    #: of every sorted lookup precomputed); ``None`` for an inference plan,
    #: which nothing will backpropagate.
    grad_plans: tuple[kernels.CoalescePlan, ...] | None
    #: Fused CSR layout over all features (the single gather dispatch).
    all_values: np.ndarray
    all_offsets: np.ndarray
    #: Split points of the fused pooled output; ``None`` for one feature.
    split_bounds: np.ndarray | None
    #: Per-batch tier accounting captured at plan time (tiered tables only;
    #: see :class:`repro.tiering.store.TieredEmbeddingTable.plan_forward`).
    tier_delta: object | None = None

    def touched_rows(self) -> np.ndarray:
        """Unique rows this batch's backward will produce gradients for.

        Matches the ``rows`` of :meth:`EmbeddingTable.pop_grad` exactly:
        features with no lookups contribute nothing (their backward is
        skipped), a single contributing feature passes its already-unique
        rows through, and multiple contributors coalesce to the sorted
        union.  Weight-independent: known at plan time, before the forward.
        """
        if self.grad_plans is None:
            raise RuntimeError("an inference plan (training=False) has no grad plans")
        nonempty = [g.rows for g in self.grad_plans if len(g.rows)]
        if not nonempty:
            return np.empty(0, dtype=np.int64)
        if len(nonempty) == 1:
            return nonempty[0]
        return np.unique(np.concatenate(nonempty))


class EmbeddingTable:
    """One embedding lookup table with pooled multi-hot reads.

    The forward pass is the EmbeddingBag operation: gather ``n`` rows per
    sample, pool them (sum or mean), and return a ``(batch, dim)`` matrix.
    ``dtype`` selects the compute/storage precision (float64 default;
    float32 halves bandwidth — the paper's production precision, §VI).
    """

    def __init__(
        self,
        spec: TableSpec,
        rng: np.random.Generator,
        pooling: PoolingType = PoolingType.SUM,
        init_scale: float | None = None,
        dtype: np.dtype | type = np.float64,
        storage: np.ndarray | None = None,
    ) -> None:
        self.spec = spec
        self.pooling = pooling
        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(spec.dim)
        shape, dtype = (spec.hash_size, spec.dim), np.dtype(dtype)
        if storage is None:
            storage = np.empty(shape, dtype=dtype)
        elif storage.shape != shape or storage.dtype != dtype:
            raise ValueError(
                f"storage is {storage.shape} {storage.dtype}, the table {shape} {dtype}"
            )
        # The weights are ``storage`` when given — externally-owned memory,
        # such as the hybrid trainer's shared segments — and equal one
        # ``rng.uniform`` draw of the whole table, as does the rng state,
        # whatever the width it is drawn at (_draw_uniform).
        self.weight = storage
        _draw_uniform(self.weight, rng, scale)
        # A stack of forward contexts: shared tables are looked up once per
        # feature, and the collection walks features in reverse on backward.
        self._saved: list[tuple[RaggedIndices, np.ndarray, kernels.CoalescePlan]] = []
        self.sparse_grads: list[SparseGrad] = []
        self.workspace: Workspace | None = None
        self._ws_key = spec.name

    def set_backend(
        self,
        backend: Backend | str,
        workspace: Workspace | None = None,
        key: str | None = None,
    ) -> None:
        """Attach the model's arena (kept only under a backend that uses
        one, so the ``"numpy"`` reference goes on allocating); see the
        module docstring for how long results then live."""
        self.workspace = workspace if get_backend(backend).uses_workspace else None
        if key is not None:
            self._ws_key = key

    def _rows(self, key, rows: int, width: tuple[int, ...] = (), fill=None):
        """``rows`` rows of an arena buffer in the table's dtype, or
        ``None`` (the kernels then allocate) without an arena."""
        if self.workspace is None:
            return None
        return self.workspace.get_rows(key, rows, width, self.weight.dtype, fill)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def hash_size(self) -> int:
        return self.spec.hash_size

    @property
    def dtype(self) -> np.dtype:
        return self.weight.dtype

    def bytes_per_row(self) -> float:
        """Stored bytes per row at this table's actual precision.

        Tier-capacity planning (:mod:`repro.tiering`) sizes hot tiers in
        bytes; pricing rows at their true width (f32 vs f64, and int8/int4
        for :class:`~repro.core.quantization.QuantizedEmbeddingTable`)
        instead of assuming fp32 is what makes quantization and tiering
        compose — a 4-bit table fits ~8x more rows in the same hot tier.
        """
        return float(self.weight.dtype.itemsize * self.spec.dim)

    def _prepare(self, indices: RaggedIndices) -> RaggedIndices:
        """Apply truncation and validate bounds (single pass; skipped when
        the indices carry a sufficient ``safe_bound`` certificate)."""
        if self.spec.truncation is not None:
            indices = indices.truncate(self.spec.truncation)
        if indices.safe_bound is None or indices.safe_bound > self.hash_size:
            kernels.check_bounds(
                indices.values,
                self.hash_size,
                what=f"indices for table {self.spec.name}",
            )
        return indices

    def forward(self, indices: RaggedIndices, *, training: bool = True) -> np.ndarray:
        """Pooled lookup; returns ``(batch, dim)``.

        Samples with zero activated indices produce a zero vector (a
        legitimate event for optional sparse features).
        """
        return self.forward_batched([indices], training=training)[0]

    def plan_forward(
        self, features: list[RaggedIndices], *, training: bool = True
    ) -> TablePlan:
        """Precompute everything about a lookup that the weights don't touch.

        Truncation, bounds validation, the fused multi-feature CSR layout,
        per-sample lengths and the backward coalesce plans are all pure
        functions of the *indices* — this is the work the training loop
        (:meth:`~repro.core.training.Trainer.train`) does before the step.
        An inference plan (``training=False``) skips the coalesce plans, a
        sort per feature that only :meth:`backward` reads; stat-keeping
        subclasses (the tiered store) account training streams only.
        """
        # _prepare validates bounds (or accepts the safe_bound certificate),
        # so the pooled product may skip its own check.
        prepared = [self._prepare(ind) for ind in features]
        # tuple(list), not tuple(generator): the latter over-allocates and
        # shrinks, which parks one tuple per call on the interpreter's free
        # list until the next full GC (perfbench's alloc.steady_kb_per_step)
        lengths = tuple([p.lengths() for p in prepared])
        grad_plans = None
        if training:
            grad_plans = tuple(
                [kernels.coalesce_plan(p.values, n) for p, n in zip(prepared, lengths)]
            )
        if len(prepared) == 1:
            all_values = prepared[0].values
            all_offsets = prepared[0].offsets
            split_bounds = None
        else:
            all_values = np.concatenate([p.values for p in prepared])
            shifts = np.cumsum([0] + [p.total_lookups for p in prepared])
            all_offsets = np.concatenate(
                [[0]] + [p.offsets[1:] + s for p, s in zip(prepared, shifts)]
            )
            split_bounds = np.cumsum([p.batch_size for p in prepared])[:-1]
        return TablePlan(
            prepared=tuple(prepared),
            lengths=lengths,
            grad_plans=grad_plans,
            all_values=all_values,
            all_offsets=all_offsets,
            split_bounds=split_bounds,
        )

    def forward_batched(
        self,
        features: list[RaggedIndices],
        *,
        training: bool = True,
        plan: TablePlan | None = None,
        out: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Pooled lookups for several features sharing this table in one
        fused kernel dispatch.

        All features' ragged layouts are concatenated into a single CSR
        layout and pooled with one :func:`repro.core.kernels.gather_pool`
        product — the ``(total_lookups, dim)`` gathered-row temporary of
        the gather-then-pool formulation is never materialized, and shared
        tables pay one kernel dispatch per step regardless of how many
        features map to them.  Saved forward contexts are pushed in
        feature order, so :meth:`backward` (called in reverse feature
        order by the collection) pops them correctly.

        ``plan`` supplies the index-side precompute from an earlier
        :meth:`plan_forward` (the data path's); without one, the plan is
        built here — the two share every instruction that touches data, so
        the results are bit-identical.

        ``training=False`` (the inference fast path) skips pushing forward
        contexts entirely: nothing is saved, nothing needs discarding, and
        the ``_saved`` stack cannot grow across inference-only forwards.

        ``out``, a C-contiguous ``(len(features) * batch, dim)`` array,
        receives the features' pooled outputs one after another (the
        collection passes adjacent slabs of its feature-major array); the
        returned arrays are then views of it.
        """
        if plan is None:
            plan = self.plan_forward(features, training=training)
        pooled_cat = kernels.gather_pool(
            self.weight,
            plan.all_values,
            plan.all_offsets,
            check=False,
            out=out,
            ones=self._rows(_ONES_KEY, len(plan.all_values), fill=1),
        )
        if plan.split_bounds is None:
            splits = [pooled_cat]
        else:
            splits = np.split(pooled_cat, plan.split_bounds)
        outs: list[np.ndarray] = []
        for i, (p, lengths, pooled) in enumerate(
            zip(plan.prepared, plan.lengths, splits)
        ):
            if self.pooling is PoolingType.MEAN:
                divisor = np.maximum(lengths, 1).astype(pooled.dtype)
                pooled /= divisor[:, None]
            if training:
                self._saved.append((p, lengths, plan.grad_plans[i]))
            outs.append(pooled)
        return outs

    def backward(self, grad_out: np.ndarray) -> None:
        """Scatter ``(batch, dim)`` output gradients back into touched rows."""
        if not self._saved:
            raise RuntimeError("backward called before forward")
        indices, lengths, gplan = self._saved.pop()
        if grad_out.shape != (indices.batch_size, self.dim):
            raise ValueError(
                f"grad shape {grad_out.shape} != ({indices.batch_size}, {self.dim})"
            )
        if not len(indices.values):
            return
        grad_out = np.asarray(grad_out, dtype=self.weight.dtype)
        if self.pooling is PoolingType.MEAN:
            divisor = np.maximum(lengths, 1).astype(self.weight.dtype)[:, None]
            grad_out = grad_out / divisor
        # One buffer per gradient pending on this table, so the backwards
        # of a shared table or of several sub-batches never alias.
        slot = len(self.sparse_grads)
        summed = kernels.expand_apply(
            gplan,
            grad_out,
            out=self._rows((self._ws_key, "grad", slot), gplan.num_rows, (self.dim,)),
            ones=self._rows(_ONES_KEY, len(indices.values), fill=1),
        )
        self.sparse_grads.append(SparseGrad(rows=gplan.rows, values=summed))

    def zero_grad(self) -> None:
        self.sparse_grads.clear()

    def pop_grad(self) -> SparseGrad | None:
        """Coalesce and clear all accumulated sparse gradients."""
        if not self.sparse_grads:
            return None
        if len(self.sparse_grads) == 1:
            grad = self.sparse_grads[0]
        else:
            rows = np.concatenate([g.rows for g in self.sparse_grads])
            vals = np.concatenate([g.values for g in self.sparse_grads])
            grad = SparseGrad.coalesce(rows, vals)
        self.sparse_grads.clear()
        return grad


class PooledFeatures(dict):
    """What :meth:`EmbeddingBagCollection.forward` returns: feature name ->
    its ``(batch, dim)`` pooled output, each the slab ``array[i]`` of the
    feature-major ``(features, batch, dim)`` ``array`` the interaction
    reads (features in ``feature_names`` order)."""

    def __init__(self, names: list[str], array: np.ndarray) -> None:
        super().__init__(zip(names, array))
        self.array = array


class EmbeddingBagCollection:
    """All embedding tables of a model, with optional table sharing.

    ``feature_to_table`` lets several semantically-similar sparse features
    share one physical table (paper §III-A.2); by default each feature owns
    its own table.  Features mapped to the same physical table are looked
    up through the batched fast path — one fused gather per table per step.

    ``table_factory`` swaps the table implementation — e.g.
    :class:`repro.tiering.store.TieredEmbeddingTable` for the two-tier
    store — and must accept the same ``(spec, rng, pooling=, dtype=)``
    signature and consume rng identically (any drop-in subclass of
    :class:`EmbeddingTable` does).

    ``storage`` (table name -> array of the table's shape and dtype) gives
    each table the memory its weights are drawn into; the factory is then
    called with ``storage=`` too.
    """

    def __init__(
        self,
        specs: tuple[TableSpec, ...],
        rng: np.random.Generator,
        pooling: PoolingType = PoolingType.SUM,
        feature_to_table: dict[str, str] | None = None,
        dtype: np.dtype | type = np.float64,
        table_factory=None,
        storage: dict[str, np.ndarray] | None = None,
    ) -> None:
        if feature_to_table is None:
            feature_to_table = {s.name: s.name for s in specs}
        table_names = {s.name for s in specs}
        unknown = set(feature_to_table.values()) - table_names
        if unknown:
            raise ValueError(f"feature_to_table references unknown tables: {unknown}")
        if table_factory is None:
            table_factory = EmbeddingTable
        if len({s.dim for s in specs}) > 1:
            raise ValueError(
                "one pooled array needs one embedding dim across tables; got "
                f"{sorted({s.dim for s in specs})}"
            )
        self.specs = specs
        self.feature_to_table = dict(feature_to_table)
        self.tables: dict[str, EmbeddingTable] = {
            s.name: table_factory(s, rng, pooling=pooling, dtype=dtype)
            if storage is None
            else table_factory(s, rng, pooling=pooling, dtype=dtype, storage=storage[s.name])
            for s in specs
        }
        self.feature_names = list(feature_to_table.keys())
        # Features grouped by physical table, preserving feature order within
        # each group — the unit of the fused multi-feature gather — as slab
        # numbers of the feature-major pooled array, and the run they form
        # there (``None`` when a shared table's features are apart).
        by_table: dict[str, list[int]] = {}
        for slab, feature in enumerate(self.feature_names):
            by_table.setdefault(self.feature_to_table[feature], []).append(slab)
        self._table_groups: list[tuple[str, list[int], slice | None]] = [
            (name, slabs, slice(slabs[0], slabs[-1] + 1))
            if slabs[-1] - slabs[0] == len(slabs) - 1
            else (name, slabs, None)
            for name, slabs in by_table.items()
        ]
        self.workspace: Workspace | None = None
        #: Lanes :meth:`forward` and :meth:`backward` spread the tables
        #: over (:mod:`repro.core.lanes`); ``None``: one, the caller.
        self.lanes: Lanes | None = None

    def set_backend(
        self, backend: Backend | str, workspace: Workspace | None = None
    ) -> None:
        """Put the pooled array and every table on ``backend``'s arena,
        tables keyed by name (as ``MLP.set_backend`` keys its layers by
        position)."""
        self.workspace = workspace if get_backend(backend).uses_workspace else None
        for name, table in self.tables.items():
            table.set_backend(backend, workspace, key=f"emb[{name}]")

    def plan_batch(
        self, batch: dict[str, RaggedIndices], *, training: bool = True
    ) -> dict[str, TablePlan]:
        """Precompute every table's :class:`TablePlan` for one batch.

        Walks the table groups in the same order as :meth:`forward`, so a
        plan built ahead of time (by the data path) touches streams
        and stat-keeping subclass state in exactly the inline order.
        Returns table name -> plan.
        """
        missing = set(self.feature_names) - set(batch.keys())
        if missing:
            raise KeyError(f"batch is missing sparse features: {sorted(missing)}")
        names = self.feature_names
        return {
            table_name: self.tables[table_name].plan_forward(
                [batch[names[i]] for i in slabs], training=training
            )
            for table_name, slabs, _ in self._table_groups
        }

    def forward(
        self,
        batch: dict[str, RaggedIndices],
        *,
        training: bool = True,
        plans: dict[str, TablePlan] | None = None,
    ) -> dict[str, np.ndarray]:
        """Look up every feature; returns feature name -> (batch, dim), the
        slabs of one feature-major array (:class:`PooledFeatures`).

        ``plans`` (from an earlier :meth:`plan_batch`) skips the per-table
        index precompute — the data path's.  Under :attr:`lanes` the
        tables gather on several threads once one table's lookups reach
        the floor; their plans are then all built first, here, on the
        caller (tiered tables keep per-stream state).
        """
        names = self.feature_names
        missing = set(names) - set(batch.keys())
        if missing:
            raise KeyError(f"batch is missing sparse features: {sorted(missing)}")
        table = next(iter(self.tables.values()))
        shape = (len(names), batch[names[0]].batch_size, table.dim)
        if self.workspace is None:
            pooled = np.empty(shape, dtype=table.dtype)
        else:
            pooled = self.workspace.get(_POOLED_KEY, shape, table.dtype)

        def gather(group, lane):
            # A table's features pool into their C-contiguous run of slabs;
            # those of a shared table that are apart in feature order pool
            # into a fresh array and are moved.
            table_name, slabs, run = group
            vecs = self.tables[table_name].forward_batched(
                [batch[names[i]] for i in slabs],
                training=training,
                plan=None if plans is None else plans[table_name],
                out=None if run is None else pooled[run].reshape(-1, shape[2]),
            )
            if run is None:
                for i, vec in zip(slabs, vecs):
                    pooled[i] = vec

        def plan_all():
            nonlocal plans
            if plans is None:
                plans = self.plan_batch(batch, training=training)
            self._size_ones(max(len(p.all_values) for p in plans.values()))

        traffic = partial(self._gather_traffic, batch)
        spread(self.lanes, gather, self._table_groups, traffic, plan_all)
        return PooledFeatures(names, pooled)

    def _gather_traffic(self, batch: dict[str, RaggedIndices], group) -> int:
        """A table group's gather bytes: its features' lookups before
        truncation (known before any plan is built) x row bytes."""
        table_name, slabs, _ = group
        names = self.feature_names
        lookups = sum(batch[names[i]].total_lookups for i in slabs)
        return lookups * self.tables[table_name].bytes_per_row()

    def gathers_on_lanes(self, batch: dict[str, RaggedIndices]) -> bool:
        """Whether :meth:`forward` of ``batch`` on lanes would hand a table
        to one: some table's gather reaches
        :data:`~repro.core.lanes.LANE_MIN_BYTES`."""
        return any(
            self._gather_traffic(batch, group) >= lanes_mod.LANE_MIN_BYTES
            for group in self._table_groups
        )

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        names = self.feature_names

        def scatter(group, lane):
            # Reverse order mirrors forward bookkeeping for shared tables.
            table_name, slabs, _ = group
            table = self.tables[table_name]
            for i in reversed(slabs):
                table.backward(grads[names[i]])

        def traffic(group):
            table_name, slabs, _ = group
            table = self.tables[table_name]
            return self._pending_lookups(table, len(slabs)) * table.bytes_per_row()

        def size_ones():
            self._size_ones(max(
                self._pending_lookups(self.tables[name], len(slabs))
                for name, slabs, _ in self._table_groups
            ))

        spread(self.lanes, scatter, self._table_groups, traffic, size_ones)

    @staticmethod
    def _pending_lookups(table: EmbeddingTable, features: int) -> int:
        """Lookups of the ``features`` forward contexts the table's next
        backwards pop."""
        return sum(len(ctx[0].values) for ctx in table._saved[-features:])

    def _size_ones(self, lookups: int) -> None:
        """Grow the tables' shared all-ones vector to ``lookups`` on the
        caller, so no lane regrows it under another."""
        next(iter(self.tables.values()))._rows(_ONES_KEY, lookups, fill=1)

    def zero_grad(self) -> None:
        for table in self.tables.values():
            table.zero_grad()

    @property
    def total_bytes(self) -> int:
        return sum(t.weight.nbytes for t in self.tables.values())
