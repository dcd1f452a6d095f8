"""Synthetic feature generation for a :class:`~repro.core.config.ModelConfig`.

Generates the input distributions the paper characterizes:

* dense features — standard-normal scalars (computational cost of each dense
  feature is roughly the same, §III-A.1);
* sparse features — per-example feature lengths drawn around each table's
  mean (Poisson), truncated when the table sets a truncation size, with
  Zipf-skewed index popularity so row accesses are irregular.
"""

from __future__ import annotations

import numpy as np

from ..core.config import ModelConfig, TableSpec
from ..core.embedding import RaggedIndices
from ..core.model import Batch
from .click_model import ClickModel

__all__ = ["SyntheticDataGenerator", "sample_zipf_indices", "sample_lengths"]


def sample_lengths(
    rng: np.random.Generator,
    batch_size: int,
    mean_lookups: float,
    truncation: int | None = None,
    min_length: int = 0,
) -> np.ndarray:
    """Per-example feature lengths ~ Poisson(mean), optionally truncated."""
    if batch_size < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    if mean_lookups < 0:
        raise ValueError(f"mean_lookups must be >= 0, got {mean_lookups}")
    lengths = rng.poisson(mean_lookups, size=batch_size)
    if min_length:
        lengths = np.maximum(lengths, min_length)
    if truncation is not None:
        lengths = np.minimum(lengths, truncation)
    return lengths.astype(np.int64)


def sample_zipf_indices(
    rng: np.random.Generator,
    total: int,
    hash_size: int,
    skew: float = 1.05,
) -> np.ndarray:
    """Draw ``total`` row indices in ``[0, hash_size)`` with Zipf-like skew.

    Uses inverse-CDF sampling of a truncated power law over ranks, which is
    O(total) regardless of ``hash_size`` (tables can have 20M rows), then
    maps rank -> row id through a fixed permutation-free mixing so popular
    rows are spread across the table rather than clustered at id 0.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if hash_size < 1:
        raise ValueError(f"hash_size must be >= 1, got {hash_size}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    if total == 0:
        return np.empty(0, dtype=np.int64)
    if skew == 0 or hash_size == 1:
        return rng.integers(0, hash_size, size=total, dtype=np.int64)
    u = rng.uniform(0.0, 1.0, size=total)
    if abs(skew - 1.0) < 1e-9:
        ranks = np.exp(u * np.log(hash_size))
    else:
        one_minus = 1.0 - skew
        hi = float(hash_size) ** one_minus
        ranks = (1.0 + u * (hi - 1.0)) ** (1.0 / one_minus)
    ranks = np.minimum(ranks.astype(np.int64), hash_size - 1)
    # Mix ranks into row ids (multiplicative hash) so "hot" rows are not all
    # adjacent — matching real tables where popular ids are arbitrary.
    mixed = (ranks.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(hash_size)
    return mixed.astype(np.int64)


class SyntheticDataGenerator:
    """Produces :class:`Batch` objects for one model configuration.

    When a :class:`ClickModel` teacher is supplied (or ``seed_teacher=True``)
    labels are drawn from it; otherwise labels are unbiased coin flips at
    ``default_ctr`` (enough for throughput work where label signal is moot).
    """

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | int | None = None,
        teacher: ClickModel | None = None,
        seed_teacher: bool = False,
        index_skew: float = 1.05,
        default_ctr: float = 0.3,
    ) -> None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if not 0 < default_ctr < 1:
            raise ValueError(f"default_ctr must be in (0, 1), got {default_ctr}")
        self.config = config
        self.rng = rng
        if teacher is None and seed_teacher:
            teacher = ClickModel(config, rng=np.random.default_rng(rng.integers(2**31)))
        self.teacher = teacher
        self.index_skew = index_skew
        self.default_ctr = default_ctr

    def dense_batch(self, batch_size: int) -> np.ndarray:
        return self.rng.normal(0.0, 1.0, size=(batch_size, self.config.num_dense))

    def sparse_feature(self, spec: TableSpec, batch_size: int) -> RaggedIndices:
        lengths = sample_lengths(
            self.rng, batch_size, spec.mean_lookups, spec.truncation
        )
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        values = sample_zipf_indices(
            self.rng, int(offsets[-1]), spec.hash_size, self.index_skew
        )
        # sample_zipf_indices maps ranks into [0, hash_size) by construction,
        # so downstream lookups can skip their defensive bounds re-scan.
        return RaggedIndices(values=values, offsets=offsets, safe_bound=spec.hash_size)

    def batch(self, batch_size: int) -> Batch:
        """Generate one complete training batch."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        dense = self.dense_batch(batch_size)
        sparse = {
            spec.name: self.sparse_feature(spec, batch_size)
            for spec in self.config.tables
        }
        if self.teacher is not None:
            labels = self.teacher.sample_labels(dense, sparse, rng=self.rng)
        else:
            labels = (
                self.rng.uniform(size=batch_size) < self.default_ctr
            ).astype(np.float64)
        return Batch(dense=dense, sparse=sparse, labels=labels)

    def batches(self, batch_size: int, num_batches: int | None = None):
        """Yield ``num_batches`` batches (infinite stream when ``None``)."""
        produced = 0
        while num_batches is None or produced < num_batches:
            yield self.batch(batch_size)
            produced += 1

    def batch_stream(
        self, batch_size: int, num_batches: int, skip: int = 0
    ):
        """Lazily yield batches ``skip`` .. ``num_batches - 1`` of a run.

        Consumes the rng *identically* to pre-generating all
        ``num_batches`` batches up front and slicing
        (``[gen.batch(n) for _ in range(num_batches)][skip:]``): the
        skipped prefix is still generated, in order, to burn the exact
        same random draws — each batch's draw count depends on its own
        Poisson lengths, so there is no cheaper rng-faithful skip.  Unlike
        the eager list this holds one batch at a time, so a run does not
        pay for its whole data up front.
        """
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        for i in range(num_batches):
            b = self.batch(batch_size)
            if i >= skip:
                yield b
