"""The training stream and its held-out evaluation set.

Facebook decouples *reader servers* from trainers so data loading never
stalls training (paper §IV-B.2).  The timing behaviour of reader servers
lives in :mod:`repro.distributed`; a trainer's own batch prep is timed
inside :meth:`repro.core.training.Trainer.train`.
"""

from __future__ import annotations

from typing import Iterator

from ..core.model import Batch
from .synthetic import SyntheticDataGenerator

__all__ = ["train_eval_split"]


def train_eval_split(
    generator: SyntheticDataGenerator,
    batch_size: int,
    num_eval_batches: int,
) -> tuple[Iterator[Batch], list[Batch]]:
    """An infinite training stream plus a fixed held-out evaluation set.

    The eval set is materialized first (from the same generator, hence the
    same distribution) so every training configuration is scored on
    identical examples — required for the Figure 15 comparison.
    """
    if num_eval_batches < 1:
        raise ValueError(f"num_eval_batches must be >= 1, got {num_eval_batches}")
    eval_batches = [generator.batch(batch_size) for _ in range(num_eval_batches)]
    return generator.batches(batch_size), eval_batches
