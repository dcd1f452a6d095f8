"""Learning-rate schedules.

Section III of the paper lists "number of warm-up iterations" among the
hyper-parameters that matter for model quality (excluded from the
*performance* study, but part of the training system).  Schedules compose
with the optimizers here by mutating ``optimizer.lr`` per step through
:class:`ScheduledOptimizer`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ConstantLR",
    "WarmupLR",
    "PolynomialDecayLR",
    "ScheduledOptimizer",
]


class ConstantLR:
    """Flat schedule (the default behaviour made explicit)."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr

    def at(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return self.lr


class WarmupLR:
    """Linear warm-up from ``start_factor * lr`` to ``lr`` over
    ``warmup_steps``, then flat — the standard large-batch recipe the paper
    cites ([19], Goyal et al.)."""

    def __init__(self, lr: float, warmup_steps: int, start_factor: float = 0.1) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {warmup_steps}")
        if not 0 < start_factor <= 1:
            raise ValueError(f"start_factor must be in (0, 1], got {start_factor}")
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.start_factor = start_factor

    def at(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        if step >= self.warmup_steps:
            return self.lr
        progress = step / self.warmup_steps
        factor = self.start_factor + (1.0 - self.start_factor) * progress
        return self.lr * factor


class PolynomialDecayLR:
    """Decay from ``lr`` to ``end_lr`` over ``total_steps`` with exponent
    ``power`` (power=1 is linear decay), flat afterwards."""

    def __init__(
        self, lr: float, total_steps: int, end_lr: float = 0.0, power: float = 1.0
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        if end_lr < 0 or end_lr > lr:
            raise ValueError(f"end_lr must be in [0, lr], got {end_lr}")
        if power <= 0:
            raise ValueError(f"power must be positive, got {power}")
        self.lr = lr
        self.total_steps = total_steps
        self.end_lr = end_lr
        self.power = power

    def at(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        if step >= self.total_steps:
            return self.end_lr
        remaining = 1.0 - step / self.total_steps
        return self.end_lr + (self.lr - self.end_lr) * remaining**self.power


@dataclass
class ScheduledOptimizer:
    """Wrap an optimizer so its ``lr`` follows a schedule per step.

    Duck-compatible with the optimizers consumed by
    :class:`~repro.core.training.Trainer` (``zero_grad`` / ``step`` / ``lanes``).
    """

    optimizer: object
    schedule: object
    step_count: int = 0

    def zero_grad(self) -> None:
        self.optimizer.zero_grad()

    def slots(self):
        return self.optimizer.slots()

    @property
    def lanes(self):
        """The wrapped optimizer's lanes (:mod:`repro.core.lanes`)."""
        return self.optimizer.lanes

    @lanes.setter
    def lanes(self, lanes) -> None:
        self.optimizer.lanes = lanes

    def step(self) -> None:
        self.optimizer.lr = self.schedule.at(self.step_count)
        self.optimizer.step()
        self.step_count += 1

    @property
    def current_lr(self) -> float:
        return self.schedule.at(self.step_count)
