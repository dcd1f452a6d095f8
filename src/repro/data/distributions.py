"""Samplers for the statistical shapes the paper reports.

Two distributions recur throughout the characterization:

* **Feature lengths** (lookups per sparse feature, Figure 7) follow a
  power-law: a few tables are accessed far more often than the rest.
* **Hash sizes** (Figure 6) span 30 .. 20M with model-level means of a few
  million; we model them as clipped log-normals targeting a given mean.

Both samplers are deterministic under a seeded generator so production-model
configs (:mod:`repro.configs`) are reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_power_law",
    "sample_lognormal_with_mean",
    "zipf_probabilities",
    "sample_discrete_zipf",
    "power_law_mean_lengths",
]


def sample_power_law(
    rng: np.random.Generator,
    size: int,
    alpha: float,
    x_min: float = 1.0,
    x_max: float | None = None,
) -> np.ndarray:
    """Draw from a continuous power-law ``p(x) ~ x^-alpha`` on ``[x_min, x_max]``.

    Inverse-CDF sampling of the (optionally truncated) Pareto distribution.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1 for a normalizable tail, got {alpha}")
    if x_min <= 0:
        raise ValueError(f"x_min must be positive, got {x_min}")
    if x_max is not None and x_max <= x_min:
        raise ValueError(f"x_max ({x_max}) must exceed x_min ({x_min})")
    u = rng.uniform(0.0, 1.0, size=size)
    one_minus_alpha = 1.0 - alpha
    if x_max is None:
        return x_min * (1.0 - u) ** (1.0 / one_minus_alpha)
    lo = x_min**one_minus_alpha
    hi = x_max**one_minus_alpha
    return (lo + u * (hi - lo)) ** (1.0 / one_minus_alpha)


def sample_lognormal_with_mean(
    rng: np.random.Generator,
    size: int,
    target_mean: float,
    sigma: float = 1.5,
    clip_min: float | None = None,
    clip_max: float | None = None,
) -> np.ndarray:
    """Log-normal samples whose *distribution* mean equals ``target_mean``.

    ``mean = exp(mu + sigma^2 / 2)`` fixes ``mu``.  Clipping (to the paper's
    observed 30..20M hash-size range) slightly shifts the realized mean;
    callers that need an exact realized mean should rescale afterwards.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if target_mean <= 0:
        raise ValueError(f"target_mean must be positive, got {target_mean}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mu = np.log(target_mean) - 0.5 * sigma**2
    samples = rng.lognormal(mean=mu, sigma=sigma, size=size)
    if clip_min is not None or clip_max is not None:
        samples = np.clip(samples, clip_min, clip_max)
    return samples


def zipf_probabilities(num_items: int, exponent: float = 1.05) -> np.ndarray:
    """Zipf access probabilities over ``num_items`` ranks.

    Used to make embedding-row accesses skewed, mirroring the irregular
    vector accesses the paper highlights (§I, contribution 3).
    """
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def sample_discrete_zipf(
    rng: np.random.Generator,
    total: int,
    num_items: int,
    skew: float = 1.05,
    mix: bool = True,
) -> np.ndarray:
    """Draw ``total`` item ids from the *exact* discrete Zipf(``skew``) law.

    Unlike :func:`repro.data.synthetic.sample_zipf_indices` (a continuous
    power-law inverse-CDF, O(total) regardless of table size, used for
    training streams over 20M-row tables), this sampler materializes the
    discrete pmf and inverts its CDF with ``searchsorted`` — O(num_items)
    memory but *statistically exact*, so measured cache hit rates line up
    with the analytic :func:`repro.placement.cache.zipf_hit_rate` /
    :func:`repro.placement.cache.lru_hit_rate` predictions; the tiering
    sweep (:mod:`repro.experiments.ext_tiering`) and the hit-rate
    cross-validation in ``tests/test_tiering.py`` draw from it.

    ``mix`` maps rank -> row id through the same multiplicative-hash mixing
    as the training sampler, so popular rows are spread across the table
    instead of clustered at id 0.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(zipf_probabilities(num_items, skew))
    cdf[-1] = 1.0  # guard against float round-off at the tail
    ranks = np.searchsorted(cdf, rng.uniform(size=total), side="right")
    ranks = np.minimum(ranks, num_items - 1)  # rank 0 = most popular
    if not mix:
        return ranks.astype(np.int64)
    mixed = ((ranks.astype(np.uint64) + 1) * np.uint64(2654435761)) % np.uint64(
        num_items
    )
    return mixed.astype(np.int64)


def power_law_mean_lengths(
    rng: np.random.Generator,
    num_tables: int,
    overall_mean: float,
    alpha: float = 2.2,
    max_length: float = 200.0,
) -> np.ndarray:
    """Per-table mean feature lengths with a power-law shape and a fixed
    overall mean — the Figure 7 construction.

    Samples table means from a truncated Pareto, then rescales so the
    across-table average matches ``overall_mean`` exactly (keeping values
    >= a small floor so no table degenerates to zero lookups).
    """
    if num_tables < 1:
        raise ValueError(f"num_tables must be >= 1, got {num_tables}")
    if overall_mean <= 0:
        raise ValueError(f"overall_mean must be positive, got {overall_mean}")
    raw = sample_power_law(rng, num_tables, alpha=alpha, x_min=1.0, x_max=max_length)
    scaled = raw * (overall_mean / raw.mean())
    return np.maximum(scaled, 0.1)
