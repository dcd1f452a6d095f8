"""Analytic cache/tier hit-rate models, written once for the whole repo.

This is the single home of the hit-rate math; :mod:`repro.placement.cache`
(capacity planning) re-exports the rank forms.

Two families of predictors, each available in a *rank* form (Zipf
popularity over ``num_rows`` ranks) and a *pmf* form (arbitrary access
probabilities — e.g. chunk-granular popularity after rows are hashed into
chunks, the :mod:`repro.tiering.store` case):

* :func:`zipf_hit_rate` / :func:`topk_hit_rate_pmf` — hit rate of a cache
  pinning the most popular items (the steady state of LFU and of
  frequency-driven admission); generalized-harmonic top-k mass.
* :func:`lru_hit_rate` / :func:`che_hit_rate_pmf` — LRU under the
  independent-reference model via Che's characteristic-time approximation
  (strictly below the top-k mass on skewed traffic).

Both are cross-validated against the *functional* cache,
:class:`repro.tiering.policy.PolicyCache`, by ``tests/test_tiering.py``
(row-level steady-state hit rates and chunked embedding tiers).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "zipf_hit_rate",
    "lru_hit_rate",
    "topk_hit_rate_pmf",
    "che_hit_rate_pmf",
    "policy_hit_rate",
    "policy_hit_rate_pmf",
]

#: Below this rank count the generalized harmonic number is summed directly;
#: beyond it the Euler–Maclaurin tail keeps the cost O(1).
_EXACT_HARMONIC_LIMIT = 262_144


def _generalized_harmonic(n: int, s: float) -> float:
    """``H_n(s) = sum_{i=1..n} i^-s``, exact to ~1e-10 relative error.

    Small ``n`` is summed directly (the old single-term integral
    approximation drifted ~4-5% at n <~ 500, which broke the analytic vs.
    measured cache cross-validation).  Large ``n`` splits into an exact
    head plus the Euler–Maclaurin expansion of the tail::

        sum_{i=m..n} i^-s ~= int_m^n x^-s dx + (m^-s + n^-s)/2
                             + s/12 * (m^-(s+1) - n^-(s+1))
    """
    if n <= 0:
        return 0.0
    if n <= _EXACT_HARMONIC_LIMIT:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float(np.sum(ranks**-s))
    m = _EXACT_HARMONIC_LIMIT
    ranks = np.arange(1, m, dtype=np.float64)  # exact head: 1 .. m-1
    head = float(np.sum(ranks**-s))
    if abs(s - 1.0) < 1e-12:
        integral = float(np.log(n) - np.log(m))
    else:
        integral = (n ** (1.0 - s) - m ** (1.0 - s)) / (1.0 - s)
    tail = (
        integral
        + 0.5 * (m**-s + float(n) ** -s)
        + (s / 12.0) * (m ** -(s + 1.0) - float(n) ** -(s + 1.0))
    )
    return head + tail


def _validate_cache_args(num_rows: int, cached_rows: int, skew: float) -> None:
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows}")
    if cached_rows < 0:
        raise ValueError(f"cached_rows must be >= 0, got {cached_rows}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")


def zipf_hit_rate(num_rows: int, cached_rows: int, skew: float = 1.05) -> float:
    """Fraction of accesses hitting the ``cached_rows`` most popular rows.

    Zipf(s) mass of the top-k ranks, ``H_k(s) / H_n(s)`` with generalized
    harmonic numbers (exact; see :func:`_generalized_harmonic`).  This is
    the hit rate of a cache that pins the hottest rows — the limit LFU and
    frequency-admission policies converge to, and an upper bound for LRU
    (see :func:`lru_hit_rate`).
    """
    _validate_cache_args(num_rows, cached_rows, skew)
    k = min(cached_rows, num_rows)
    if k == 0:
        return 0.0
    if k == num_rows:
        return 1.0
    return min(
        1.0, _generalized_harmonic(k, skew) / _generalized_harmonic(num_rows, skew)
    )


def topk_hit_rate_pmf(p: np.ndarray, capacity: int) -> float:
    """Hit rate of a cache pinning the ``capacity`` most probable items of
    an arbitrary access pmf ``p`` (need not be Zipf — e.g. chunk-granular
    popularity).  The steady state of LFU / frequency-driven admission."""
    p = np.asarray(p, dtype=np.float64)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    c = min(capacity, len(p))
    if c == 0:
        return 0.0
    if c == len(p):
        return 1.0
    top = np.partition(p, len(p) - c)[len(p) - c :]
    return min(1.0, float(top.sum() / p.sum()))


#: Rank count beyond which the Che fixed point uses log-spaced rank
#: quadrature instead of the dense pmf (bounds memory at ~tens of KB).
_CHE_DENSE_LIMIT = 2_097_152


def _che_popularities(num_rows: int, skew: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank access probabilities ``p`` and multiplicities ``w`` such
    that ``sum(w) == num_rows`` and ``sum(w * p) == 1``."""
    if num_rows <= _CHE_DENSE_LIMIT:
        ranks = np.arange(1, num_rows + 1, dtype=np.float64)
        p = ranks**-skew
        return p / p.sum(), np.ones_like(p)
    # Log-spaced representative ranks; each bucket [lo, hi) is represented
    # by its geometric-mean rank with multiplicity (hi - lo).
    edges = np.unique(
        np.round(np.geomspace(1, num_rows + 1, num=4096)).astype(np.int64)
    )
    lo, hi = edges[:-1], edges[1:]
    w = (hi - lo).astype(np.float64)
    reps = np.sqrt(lo * hi.astype(np.float64))
    p = reps**-skew
    p /= float(np.sum(w * p))
    return p, w


def _che_fixed_point(p: np.ndarray, w: np.ndarray, capacity: float) -> float:
    """Solve ``sum_i w_i (1 - exp(-p_i T)) = C`` for the characteristic
    time ``T`` and return the hit rate ``sum_i w_i p_i (1 - exp(-p_i T))``."""

    def occupancy(t: float) -> float:
        return float(np.sum(w * -np.expm1(-p * t)))

    # Bracket then bisect the monotone fixed point (no scipy dependency in
    # this hot path; 60 iterations give ~1e-12 relative precision).
    lo, hi = 0.0, float(capacity)
    while occupancy(hi) < capacity:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - defensive
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if occupancy(mid) < capacity:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return min(1.0, float(np.sum(w * p * -np.expm1(-p * t))))


def che_hit_rate_pmf(p: np.ndarray, capacity: int) -> float:
    """Expected LRU hit rate under an arbitrary access pmf ``p`` via Che's
    characteristic-time approximation (independent-reference model)."""
    p = np.asarray(p, dtype=np.float64)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    c = min(capacity, len(p))
    if c == 0:
        return 0.0
    if c == len(p):
        return 1.0
    total = float(p.sum())
    if total <= 0:
        raise ValueError("pmf must have positive mass")
    return _che_fixed_point(p / total, np.ones_like(p), float(c))


def lru_hit_rate(num_rows: int, cached_rows: int, skew: float = 1.05) -> float:
    """Expected *LRU* hit rate under the independent-reference model.

    Che's approximation: the characteristic time ``T`` solves
    ``sum_i (1 - exp(-p_i T)) = C`` and the hit rate is
    ``sum_i p_i (1 - exp(-p_i T))``.  Accurate to ~1% against the
    functional LRU :class:`~repro.tiering.policy.PolicyCache` on
    discrete-Zipf traffic (pinned by ``tests/test_tiering.py``).
    """
    _validate_cache_args(num_rows, cached_rows, skew)
    c = min(cached_rows, num_rows)
    if c == 0:
        return 0.0
    if c == num_rows:
        return 1.0
    p, w = _che_popularities(num_rows, skew)
    return _che_fixed_point(p, w, float(c))


def policy_hit_rate(
    policy: str, num_rows: int, cached_rows: int, skew: float = 1.05
) -> float:
    """Analytic steady-state hit rate for a named eviction policy.

    ``"lfu"`` and ``"freq"`` converge to pinning the most popular items
    (top-k Zipf mass); ``"lru"`` keeps recently-used items and lands
    strictly lower (Che).
    """
    if policy in ("lfu", "freq"):
        return zipf_hit_rate(num_rows, cached_rows, skew)
    if policy == "lru":
        return lru_hit_rate(num_rows, cached_rows, skew)
    raise ValueError(f"unknown policy {policy!r}; expected lru/lfu/freq")


def policy_hit_rate_pmf(policy: str, p: np.ndarray, capacity: int) -> float:
    """pmf-form of :func:`policy_hit_rate` (arbitrary popularity vector)."""
    if policy in ("lfu", "freq"):
        return topk_hit_rate_pmf(p, capacity)
    if policy == "lru":
        return che_hit_rate_pmf(p, capacity)
    raise ValueError(f"unknown policy {policy!r}; expected lru/lfu/freq")
