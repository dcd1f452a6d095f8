"""Figure 15 — accuracy gap vs batch size (real numpy training).

This is a *functional* experiment: an actual DLRM is trained on synthetic
teacher-labeled click data.  The paper's protocol is followed:

* a fixed example budget (larger batches therefore take proportionally
  fewer optimizer steps — the mechanism behind big-batch quality loss);
* the learning rate is re-tuned per batch size by a log-grid sweep (the
  paper's "manual tuning"; its AutoML variant, the Bayesian strategy, is
  :func:`~repro.core.tuning.bayesian_search`, compared in
  ``benchmarks/test_ablation_automl_tuning.py``);
* quality is normalized entropy on one shared held-out set;
* the reported number is the percent NE gap vs the small-batch baseline,
  which the paper finds grows with batch size even after tuning.

A second driver reproduces the §VI-C observation that the GPU setup
(fewer workers, tighter synchronization) can reach slightly *better*
quality than the asynchronous many-worker CPU setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..analysis import render_table
from ..core import (
    Adagrad,
    Batch,
    DLRM,
    InteractionType,
    MLPSpec,
    ModelConfig,
    SearchResult,
    Trainer,
    Trial,
    evaluate,
    ne_gap_percent,
    uniform_tables,
)
from ..data import ClickModel, SyntheticDataGenerator
from ..distributed import EASGDConfig, EASGDTrainer
from ..runtime import SweepRunner

__all__ = [
    "BatchPoint",
    "Fig15Result",
    "SyncModeResult",
    "accuracy_model",
    "train_eval_point",
    "run",
    "run_sync_mode_comparison",
    "render",
]


def accuracy_model() -> ModelConfig:
    """A small DLRM sized for real (numpy) training in seconds."""
    return ModelConfig(
        name="fig15",
        num_dense=16,
        tables=uniform_tables(6, 2000, dim=16, mean_lookups=3.0),
        bottom_mlp=MLPSpec((32, 16)),
        top_mlp=MLPSpec((16,)),
        interaction=InteractionType.DOT,
    )


@dataclass(frozen=True)
class BatchPoint:
    batch_size: int
    tuned_lr: float
    normalized_entropy: float
    ne_gap_percent: float  # vs the baseline batch
    steps_taken: int


@dataclass(frozen=True)
class Fig15Result:
    baseline_batch: int
    baseline_ne: float
    points: tuple[BatchPoint, ...]

    def gaps(self) -> list[float]:
        return [p.ne_gap_percent for p in self.points]

    def monotone_fraction(self) -> float:
        """Fraction of adjacent batch-size pairs where the gap grows."""
        gaps = self.gaps()
        if len(gaps) < 2:
            return 1.0
        ups = sum(1 for a, b in zip(gaps, gaps[1:]) if b >= a)
        return ups / (len(gaps) - 1)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@lru_cache(maxsize=4)
def _held_out(
    teacher_seed: int, eval_seed: int, num_eval_batches: int, eval_batch_size: int
) -> tuple[ClickModel, tuple[Batch, ...]]:
    """The ``ClickModel`` teacher and its held-out evaluation batches, built
    once per process for each key (every point of a :func:`run` shares one).

    The teacher is pure after ``__init__`` (label draws come from the
    *generator's* RNG), so sharing it is bit-identical to rebuilding it per
    point.  Every array of both is made read-only: a point that wrote into
    what the next one reads raises instead.
    """
    config = accuracy_model()
    teacher = ClickModel(config, rng=teacher_seed)
    eval_gen = SyntheticDataGenerator(config, rng=eval_seed, teacher=teacher)
    batches = tuple(eval_gen.batch(eval_batch_size) for _ in range(num_eval_batches))
    _read_only(teacher.dense_weights, *teacher.table_latents.values())
    for batch in batches:
        _read_only(batch.dense, batch.labels)
        for ragged in batch.sparse.values():
            _read_only(ragged.values, ragged.offsets)
    return teacher, batches


def train_eval_point(
    batch_size: int,
    lr: float,
    example_budget: int,
    data_seed: int,
    model_seed: int,
    teacher_seed: int,
    eval_seed: int,
    num_eval_batches: int = 3,
    eval_batch_size: int = 2048,
) -> dict:
    """One fully self-contained Fig 15 training run (picklable, cacheable).

    The teacher and the held-out evaluation batches are functions of their
    seeds and sizes alone (:func:`_held_out`), so the point depends only on
    its arguments wherever and in whatever order it runs.
    """
    config = accuracy_model()
    teacher, eval_batches = _held_out(
        teacher_seed, eval_seed, num_eval_batches, eval_batch_size
    )
    gen = SyntheticDataGenerator(config, rng=data_seed, teacher=teacher)
    model = DLRM(config, rng=model_seed)
    trainer = Trainer(
        model,
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=lr),
    )
    result = trainer.train(gen.batches(batch_size), max_examples=example_budget)
    ne = evaluate(model, eval_batches)["normalized_entropy"]
    return {"ne": float(ne), "steps": int(result.steps)}


def run(
    baseline_batch: int = 128,
    gpu_batches: tuple[int, ...] = (256, 512, 1024, 2048),
    example_budget: int = 24_000,
    tuning_trials: int = 5,
    num_seeds: int = 3,
    seed: int = 0,
    runner: SweepRunner | None = None,
) -> Fig15Result:
    """Tune LR per batch size, train on the shared budget, report NE gaps.

    NE is averaged over ``num_seeds`` model initializations — at this model
    scale a single run's NE noise is comparable to the batch-size effect,
    so the gap is measured on the seed-averaged quality (the paper
    similarly trains on "high volumes of data" to resolve ~0.1% gaps).

    Two flat sweeps of :func:`train_eval_point` go through ``runner``
    (default: one in-process worker).  Phase 1 evaluates every (batch, lr,
    tuning-seed) combination over a log-spaced LR grid of
    ``tuning_trials`` points and picks each batch's LR by
    :attr:`~repro.core.tuning.SearchResult.best` over the NE meaned over
    two tuning seeds; phase 2 runs the ``num_seeds`` final trainings at
    each batch's tuned LR.
    """
    if example_budget < baseline_batch:
        raise ValueError("example_budget must cover at least one baseline batch")
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    if tuning_trials < 2:
        raise ValueError(f"num must be >= 2, got {tuning_trials}")
    runner = runner or SweepRunner()
    # One shared teacher (rebuilt per point from its seed); the held-out
    # evaluation stream uses a *different* RNG than the training streams
    # (same distribution, disjoint examples — sharing the raw stream would
    # let large-batch arms train on the exact eval batches).
    common = {
        "example_budget": example_budget,
        "data_seed": seed,  # identical training stream family for every arm
        "teacher_seed": seed + 999,
        "eval_seed": seed + 5000,
    }
    lrs = [float(lr) for lr in np.logspace(np.log10(5e-3), np.log10(0.5), tuning_trials)]
    batches = (baseline_batch, *gpu_batches)
    tune_points = [
        {"batch_size": b, "lr": lr, "model_seed": seed + 1 + s, **common}
        for b in batches
        for lr in lrs
        for s in range(2)
    ]
    tune_raw = runner.map(train_eval_point, tune_points, namespace="fig15.tune")

    best_lrs: dict[int, float] = {}
    idx = 0
    for b in batches:
        trials = []
        for lr in lrs:
            trials.append(Trial(lr, float(np.mean([tune_raw[idx]["ne"], tune_raw[idx + 1]["ne"]]))))
            idx += 2
        best_lrs[b] = SearchResult(tuple(trials)).best.learning_rate

    final_points = [
        {"batch_size": b, "lr": best_lrs[b], "model_seed": seed + 101 + s, **common}
        for b in batches
        for s in range(num_seeds)
    ]
    final_raw = runner.map(train_eval_point, final_points, namespace="fig15.final")

    results: dict[int, tuple[float, float, int]] = {}
    idx = 0
    for b in batches:
        chunk = final_raw[idx : idx + num_seeds]
        idx += num_seeds
        results[b] = (
            best_lrs[b],
            float(np.mean([r["ne"] for r in chunk])),
            chunk[-1]["steps"],
        )
    baseline_ne = results[baseline_batch][1]
    points = tuple(
        BatchPoint(
            batch_size=batch,
            tuned_lr=results[batch][0],
            normalized_entropy=results[batch][1],
            ne_gap_percent=ne_gap_percent(results[batch][1], baseline_ne),
            steps_taken=results[batch][2],
        )
        for batch in gpu_batches
    )
    return Fig15Result(
        baseline_batch=baseline_batch, baseline_ne=baseline_ne, points=points
    )


@dataclass(frozen=True)
class SyncModeResult:
    """§VI-C: CPU-style async many-worker vs GPU-style tight sync."""

    async_ne: float  # EASGD, many workers
    sync_ne: float  # single worker (GPU-server-style)

    @property
    def gpu_style_gap_percent(self) -> float:
        """Negative == the GPU-style setup reached better quality."""
        return ne_gap_percent(self.sync_ne, self.async_ne)


def run_sync_mode_comparison(
    num_async_workers: int = 4,
    batch_size: int = 128,
    example_budget: int = 40_000,
    lr: float = 0.05,
    seed: int = 0,
) -> SyncModeResult:
    config = accuracy_model()
    teacher = ClickModel(config, rng=seed + 999)
    eval_gen = SyntheticDataGenerator(config, rng=seed + 5000, teacher=teacher)
    eval_batches = [eval_gen.batch(2048) for _ in range(2)]

    gen_async = SyntheticDataGenerator(config, rng=seed, teacher=teacher)
    easgd = EASGDTrainer(
        config, EASGDConfig(num_workers=num_async_workers, tau=8), lr=lr, rng=seed + 1
    )
    easgd.train(gen_async.batches(batch_size), max_examples=example_budget)
    async_ne = evaluate(easgd.center_dlrm(), eval_batches)["normalized_entropy"]

    gen_sync = SyntheticDataGenerator(config, rng=seed, teacher=teacher)
    model = DLRM(config, rng=seed + 1)
    trainer = Trainer(
        model, lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=lr)
    )
    trainer.train(gen_sync.batches(batch_size), max_examples=example_budget)
    sync_ne = evaluate(model, eval_batches)["normalized_entropy"]
    return SyncModeResult(async_ne=async_ne, sync_ne=sync_ne)


def render(result: Fig15Result) -> str:
    rows = [
        [
            p.batch_size,
            f"{p.tuned_lr:.4f}",
            p.steps_taken,
            f"{p.normalized_entropy:.4f}",
            f"{p.ne_gap_percent:+.2f}%",
        ]
        for p in result.points
    ]
    table = render_table(
        ["batch", "tuned lr", "steps", "NE", "gap vs baseline"],
        rows,
        title=(
            f"Figure 15: NE gap vs batch size after LR tuning "
            f"(baseline batch {result.baseline_batch}, NE {result.baseline_ne:.4f})"
        ),
    )
    return table
