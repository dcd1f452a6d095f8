"""Hyper-parameter search strategies (paper §VI-C).

FBLearner's parameter sweep supports grid, random and Bayesian-optimization
search; the paper uses the Bayesian strategy to re-tune learning rates when
porting models to GPU batch sizes.  We reproduce all three strategies over a
one-dimensional learning-rate space (the knob the paper re-tunes), with a
lightweight expected-improvement Bayesian loop built on a Gaussian-kernel
surrogate — no external optimizer dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Trial", "SearchResult", "grid_search", "random_search", "bayesian_search"]

Objective = Callable[[float], float]


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration."""

    learning_rate: float
    loss: float


@dataclass(frozen=True)
class SearchResult:
    """All trials plus the incumbent."""

    trials: tuple[Trial, ...]

    @property
    def best(self) -> Trial:
        """The lowest loss, first one on ties; a diverged (non-finite)
        trial ranks after every finite one."""
        return min(self.trials, key=lambda t: t.loss if math.isfinite(t.loss) else math.inf)

    @property
    def num_trials(self) -> int:
        return len(self.trials)


def _validate_bounds(low: float, high: float) -> None:
    if not (0 < low < high):
        raise ValueError(f"need 0 < low < high, got ({low}, {high})")


def grid_search(
    objective: Objective,
    low: float,
    high: float,
    num: int = 8,
) -> SearchResult:
    """Log-spaced grid over ``[low, high]`` (learning rates live on a log scale)."""
    _validate_bounds(low, high)
    if num < 2:
        raise ValueError(f"num must be >= 2, got {num}")
    lrs = [float(lr) for lr in np.logspace(np.log10(low), np.log10(high), num)]
    return SearchResult(tuple(Trial(lr, float(objective(lr))) for lr in lrs))


def random_search(
    objective: Objective,
    low: float,
    high: float,
    num: int = 8,
    rng: np.random.Generator | int | None = None,
) -> SearchResult:
    """Log-uniform random sampling over ``[low, high]``."""
    _validate_bounds(low, high)
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lrs = [float(lr) for lr in 10 ** rng.uniform(np.log10(low), np.log10(high), size=num)]
    return SearchResult(tuple(Trial(lr, float(objective(lr))) for lr in lrs))


def _expected_improvement(
    candidates: np.ndarray,
    observed_x: np.ndarray,
    observed_y: np.ndarray,
    length_scale: float,
) -> np.ndarray:
    """EI under a Nadaraya-Watson surrogate with distance-based uncertainty.

    A full GP is unnecessary for a 1-D learning-rate sweep; this keeps the
    explore/exploit behaviour (prefer low predicted loss, prefer regions far
    from all observations) that Bayesian optimization provides.
    """
    dists = np.abs(candidates[:, None] - observed_x[None, :])
    weights = np.exp(-0.5 * (dists / length_scale) ** 2)
    norm = weights.sum(axis=1)
    mean = np.where(norm > 1e-12, (weights * observed_y).sum(axis=1) / np.maximum(norm, 1e-12), observed_y.mean())
    # Uncertainty grows with distance to the nearest observation.
    sigma = observed_y.std() * (1.0 - np.exp(-dists.min(axis=1) / length_scale)) + 1e-9
    best = observed_y.min()
    z = (best - mean) / sigma
    # Gaussian EI: sigma * (z * Phi(z) + phi(z))
    phi = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)
    # Imported on first use: a process that never runs a Bayesian search
    # should not map scipy.special (~26 MB and 315 modules on its own).
    from scipy.special import erf

    big_phi = 0.5 * (1.0 + erf(z / np.sqrt(2)))
    return sigma * (z * big_phi + phi)


def bayesian_search(
    objective: Objective,
    low: float,
    high: float,
    num: int = 8,
    num_init: int = 3,
    rng: np.random.Generator | int | None = None,
) -> SearchResult:
    """Sequential model-based search: random warm-up then EI maximization.

    Operates in log10(lr) space.  This mirrors the AutoML flow the paper
    uses to re-tune learning rate after changing batch size (§VI-C).  The
    surrogate sees only the finite losses: a diverged trial has none.
    """
    _validate_bounds(low, high)
    if num < num_init or num_init < 1:
        raise ValueError(f"need num >= num_init >= 1, got num={num}, num_init={num_init}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lo, hi = np.log10(low), np.log10(high)
    xs: list[float] = list(rng.uniform(lo, hi, size=num_init))
    ys: list[float] = [float(objective(float(10**x))) for x in xs]
    length_scale = (hi - lo) / 4.0
    while len(xs) < num:
        candidates = rng.uniform(lo, hi, size=256)
        finite = np.isfinite(ys)
        ei = (
            _expected_improvement(
                candidates, np.array(xs)[finite], np.array(ys)[finite], length_scale
            )
            if finite.any()
            else np.zeros(len(candidates))
        )
        x_next = float(candidates[int(np.argmax(ei))])
        xs.append(x_next)
        ys.append(float(objective(float(10**x_next))))
    trials = tuple(Trial(float(10**x), y) for x, y in zip(xs, ys))
    return SearchResult(trials)
