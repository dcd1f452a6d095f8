"""Tiered embedding store experiments (extension; ROADMAP item 2).

Two claims about :mod:`repro.tiering` are checked end to end:

* **Bit-identity** (:func:`run_train`): training a DLRM whose embedding
  tables are :class:`~repro.tiering.store.TieredEmbeddingTable` produces
  the *same bits* — every step loss and every weight — as the flat
  :class:`~repro.core.embedding.EmbeddingTable`, in float64 and float32,
  at any hot-tier fraction.  Tiering only changes simulated cost.

* **Measured vs analytic** (:func:`run_sweep`): the simulated tier-miss
  overhead charged by the functional store on a Zipf access stream must
  match the closed-form prediction (chunk-granular popularity pmf through
  :mod:`repro.tiering.analytic`, priced by
  :class:`~repro.tiering.costs.TierCostModel`) within a per-point relative
  error — the cross-validation ``tests/test_tiering.py`` applies to the
  cache's hit rates, extended to cost.

``python -m repro tier {train,sweep}`` drives both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..analysis import render_table
from ..core.config import InteractionType, MLPSpec, ModelConfig, TableSpec, uniform_tables
from ..core.model import DLRM
from ..core.optim import Adagrad
from ..core.training import Trainer
from ..data.distributions import sample_discrete_zipf, zipf_probabilities
from ..obs import MetricsRegistry
from ..tiering.analytic import policy_hit_rate_pmf
from ..tiering.store import TieredEmbeddingTable, TieredStoreConfig

__all__ = [
    "TierTrainResult",
    "TierSweepPoint",
    "default_config",
    "run_train",
    "run_sweep",
    "chunk_popularity",
    "render_train",
    "render_sweep",
    "DEFAULT_HOT_FRACTIONS",
    "DEFAULT_SKEWS",
    "DEFAULT_POLICIES",
    "DEFAULT_MAX_REL_ERR",
]

#: Default sweep grid: hot fractions in the regime where the hot tier is
#: genuinely contended (miss rates far from 0, so the 25% gate on miss-
#: driven overhead is meaningful), two skews bracketing the paper's ~1.05.
DEFAULT_HOT_FRACTIONS = (0.02, 0.05, 0.1)
DEFAULT_SKEWS = (0.9, 1.05)
DEFAULT_POLICIES = ("lru", "freq")
#: Acceptance bound on |measured - predicted| / predicted per swept point.
DEFAULT_MAX_REL_ERR = 0.25


def default_config(dtype: str = "float64") -> ModelConfig:
    """A small DLRM for functional tiering runs (CI-sized)."""
    return ModelConfig(
        name=f"tier-test-{dtype}",
        num_dense=8,
        tables=uniform_tables(4, hash_size=2000, dim=16, mean_lookups=4.0),
        bottom_mlp=MLPSpec.from_notation("32^2"),
        top_mlp=MLPSpec.from_notation("32^2"),
        interaction=InteractionType.CONCAT,
        compute_dtype=dtype,
    )


@dataclass(frozen=True)
class TierTrainResult:
    """Flat-vs-tiered training comparison at one precision."""

    dtype: str
    hot_fraction: float
    policy: str
    chunk_rows: int
    steps: int
    losses_flat: tuple[float, ...]
    losses_tiered: tuple[float, ...]
    digest_flat: str
    digest_tiered: str
    #: Aggregate tier accounting across all tables (see TierStats.as_dict).
    tier_stats: dict[str, float]
    #: Tier counters observed on the Trainer's MetricsRegistry.
    metric_hits: float
    metric_misses: float

    @property
    def losses_identical(self) -> bool:
        return self.losses_flat == self.losses_tiered

    @property
    def digests_identical(self) -> bool:
        return self.digest_flat == self.digest_tiered

    @property
    def bit_identical(self) -> bool:
        return self.losses_identical and self.digests_identical


def _state_digest(model: DLRM) -> str:
    """sha256 over every weight tensor (tables in config order + dense)."""
    h = hashlib.sha256()
    for table in model.embedding_tables():
        h.update(np.ascontiguousarray(table.weight))
    for p in model.dense_parameters():
        h.update(np.ascontiguousarray(p.value))
    return h.hexdigest()


def run_train(
    hot_fraction: float = 0.05,
    policy: str = "freq",
    steps: int = 8,
    batch: int = 64,
    seed: int = 0,
    dtype: str = "float64",
    chunk_rows: int = 4,
) -> TierTrainResult:
    """Train the same model flat and tiered on identical batches.

    Both models are built from the same seed (tiered tables consume rng
    exactly like flat ones) and fed the same materialized batch list, so
    any numeric difference whatsoever fails the bit-identity claim.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    from ..data.synthetic import SyntheticDataGenerator

    config = default_config(dtype)
    gen = SyntheticDataGenerator(config, rng=seed, seed_teacher=True)
    batches = [gen.batch(batch) for _ in range(steps)]
    tiering = TieredStoreConfig(
        hot_fraction=hot_fraction, policy=policy, chunk_rows=chunk_rows
    )

    def opt_factory(m: DLRM):
        return Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.01)

    flat_model = DLRM(config, rng=seed + 1)
    flat_trainer = Trainer(flat_model, opt_factory)
    flat_losses = [flat_trainer.train_step(b) for b in batches]

    metrics = MetricsRegistry()
    tiered_model = DLRM(config, rng=seed + 1, tiering=tiering)
    tiered_trainer = Trainer(tiered_model, opt_factory, metrics=metrics)
    tiered_losses = [tiered_trainer.train_step(b) for b in batches]

    agg: dict[str, float] = {}
    for table in tiered_model.embedding_tables():
        assert isinstance(table, TieredEmbeddingTable)
        for key, value in table.stats.as_dict().items():
            if key != "hit_rate":
                agg[key] = agg.get(key, 0.0) + value
    accesses = agg.get("hot_hits", 0.0) + agg.get("cold_misses", 0.0)
    agg["hit_rate"] = agg.get("hot_hits", 0.0) / accesses if accesses else 0.0

    def counter_total(name: str) -> float:
        if name not in metrics:
            return 0.0
        return sum(c.value for c in metrics.get(name).children().values())

    return TierTrainResult(
        dtype=dtype,
        hot_fraction=hot_fraction,
        policy=policy,
        chunk_rows=chunk_rows,
        steps=steps,
        losses_flat=tuple(flat_losses),
        losses_tiered=tuple(tiered_losses),
        digest_flat=_state_digest(flat_model),
        digest_tiered=_state_digest(tiered_model),
        tier_stats=agg,
        metric_hits=counter_total("tier_hot_hits"),
        metric_misses=counter_total("tier_cold_misses"),
    )


@dataclass(frozen=True)
class TierSweepPoint:
    """One (hot-fraction, skew, policy) point: measured vs analytic."""

    hot_fraction: float
    skew: float
    policy: str
    chunk_rows: int
    capacity_chunks: int
    accesses: int
    measured_hit_rate: float
    predicted_hit_rate: float
    measured_overhead_s: float
    predicted_overhead_s: float

    @property
    def rel_err(self) -> float:
        if self.predicted_overhead_s <= 0.0:
            return 0.0 if self.measured_overhead_s == 0.0 else float("inf")
        return abs(self.measured_overhead_s - self.predicted_overhead_s) / (
            self.predicted_overhead_s
        )


def chunk_popularity(num_rows: int, chunk_rows: int, skew: float) -> np.ndarray:
    """Exact access pmf over *chunks* for the discrete-Zipf row stream.

    :func:`repro.data.distributions.sample_discrete_zipf` maps rank ``r``
    to row ``((r + 1) * 2654435761) % num_rows`` (a bijection — the
    multiplier is prime); summing the rank pmf over each chunk's member
    rows gives the chunk pmf the analytic models need.
    """
    p_rank = zipf_probabilities(num_rows, skew)
    ranks = np.arange(num_rows, dtype=np.uint64)
    mixed = ((ranks + np.uint64(1)) * np.uint64(2654435761)) % np.uint64(num_rows)
    num_chunks = -(-num_rows // chunk_rows)
    chunk_p = np.zeros(num_chunks, dtype=np.float64)
    np.add.at(chunk_p, mixed.astype(np.int64) // chunk_rows, p_rank)
    return chunk_p


def run_sweep(
    hot_fractions: tuple[float, ...] = DEFAULT_HOT_FRACTIONS,
    skews: tuple[float, ...] = DEFAULT_SKEWS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    num_rows: int = 4096,
    dim: int = 16,
    chunk_rows: int = 4,
    warmup: int = 20_000,
    measure: int = 40_000,
    seed: int = 0,
    ema_decay: float = 0.9995,
) -> list[TierSweepPoint]:
    """Stream exact discrete-Zipf accesses through the functional store
    and compare its charged overhead against the analytic prediction.

    The cache warms for ``warmup`` accesses, then ``measure`` accesses are
    accounted — the analytic models describe the steady state, so the
    warm-up transient (cold fills, initial promotions) is excluded.
    """
    if measure < 1:
        raise ValueError(f"measure must be >= 1, got {measure}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    points: list[TierSweepPoint] = []
    for skew in skews:
        rng = np.random.default_rng(seed)
        stream = sample_discrete_zipf(rng, warmup + measure, num_rows, skew)
        for hot_fraction in hot_fractions:
            for policy in policies:
                spec = TableSpec(
                    name="sweep", hash_size=num_rows, dim=dim, mean_lookups=1.0
                )
                table = TieredEmbeddingTable(
                    spec,
                    np.random.default_rng(seed),
                    tiering=TieredStoreConfig(
                        hot_fraction=hot_fraction,
                        policy=policy,
                        chunk_rows=chunk_rows,
                        ema_decay=ema_decay,
                    ),
                )
                for lo in range(0, warmup, 4096):
                    table.record_accesses(stream[lo : min(lo + 4096, warmup)])
                snap = table.stats.snapshot()
                for lo in range(warmup, warmup + measure, 4096):
                    table.record_accesses(
                        stream[lo : min(lo + 4096, warmup + measure)]
                    )
                delta = table.stats.delta(snap)

                chunk_p = chunk_popularity(num_rows, chunk_rows, skew)
                h_pred = policy_hit_rate_pmf(
                    policy, chunk_p, table.capacity_chunks
                )
                row_b = table.bytes_per_row()
                # Insert-on-miss policies migrate a chunk per miss; the
                # frequency-admission hot set is stable in steady state.
                moves_per_miss = 0.0 if policy == "freq" else 1.0
                predicted = table.cost_model.predicted_overhead_s(
                    delta.accesses,
                    h_pred,
                    row_b,
                    row_b * chunk_rows,
                    moves_per_miss,
                )
                points.append(
                    TierSweepPoint(
                        hot_fraction=hot_fraction,
                        skew=skew,
                        policy=policy,
                        chunk_rows=chunk_rows,
                        capacity_chunks=table.capacity_chunks,
                        accesses=delta.accesses,
                        measured_hit_rate=delta.hit_rate,
                        predicted_hit_rate=h_pred,
                        measured_overhead_s=delta.overhead_s,
                        predicted_overhead_s=predicted,
                    )
                )
    return points


def render_train(results: list[TierTrainResult]) -> str:
    rows = [
        [
            r.dtype,
            f"{r.hot_fraction:.2f}",
            r.policy,
            r.steps,
            f"{r.tier_stats['hit_rate']:.3f}",
            f"{r.tier_stats['overhead_s'] * 1e3:.3f}",
            "yes" if r.losses_identical else "NO",
            "yes" if r.digests_identical else "NO",
        ]
        for r in results
    ]
    return render_table(
        ["dtype", "hot frac", "policy", "steps", "tier hit", "overhead ms",
         "losses ==", "digests =="],
        rows,
        title="Tiered vs flat embedding table (bit-identity)",
    )


def render_sweep(points: list[TierSweepPoint]) -> str:
    rows = [
        [
            f"{p.hot_fraction:.2f}",
            f"{p.skew:.2f}",
            p.policy,
            p.capacity_chunks,
            f"{p.measured_hit_rate:.3f}",
            f"{p.predicted_hit_rate:.3f}",
            f"{p.measured_overhead_s * 1e3:.2f}",
            f"{p.predicted_overhead_s * 1e3:.2f}",
            f"{p.rel_err * 100:.1f}%",
        ]
        for p in points
    ]
    return render_table(
        ["hot frac", "skew", "policy", "cap chunks", "hit meas", "hit pred",
         "ovh meas ms", "ovh pred ms", "rel err"],
        rows,
        title="Measured vs analytic tier-miss overhead",
    )
