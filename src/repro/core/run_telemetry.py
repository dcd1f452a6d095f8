"""Per-run training telemetry: metric time series and run reports.

Production training emits counters (loss, examples/s, learning rate) that
feed dashboards and the utilization studies of Figure 5.  ``MetricsLogger``
is the single-run analogue: it records step-indexed series during a
functional training run, computes summaries, and exports CSV for offline
analysis.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.registry import MetricsRegistry
from .training import TrainResult, _train_loop

__all__ = ["MetricsLogger", "MetricSeries", "InstrumentedTrainer"]


@dataclass
class MetricSeries:
    """One named, step-indexed series."""

    name: str
    steps: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, step: int, value: float) -> None:
        """Append ``(step, value)``.

        Steps must be non-decreasing; recording the *same* step twice
        overwrites the previous value (last-writer-wins), matching what a
        production metrics pipeline does when a step is re-reported, e.g.
        after a checkpoint restore replays the last step.
        """
        if self.steps and step < self.steps[-1]:
            raise ValueError(
                f"series {self.name!r}: step {step} < last step {self.steps[-1]}"
            )
        if self.steps and step == self.steps[-1]:
            self.values[-1] = float(value)
            return
        self.steps.append(step)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.steps)

    def latest(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return self.values[-1]

    def smoothed(self, window: int = 10) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        if window < 1:
            raise ValueError("window must be >= 1")
        return float(np.mean(self.values[-window:]))


class MetricsLogger:
    """Collects named series for one training run."""

    def __init__(self) -> None:
        self._series: dict[str, MetricSeries] = {}
        self.started_at = time.monotonic()

    def record(self, step: int, **metrics: float) -> None:
        for name, value in metrics.items():
            self._series.setdefault(name, MetricSeries(name)).record(step, value)

    def series(self, name: str) -> MetricSeries:
        if name not in self._series:
            raise KeyError(f"no series named {name!r}")
        return self._series[name]

    def names(self) -> list[str]:
        return sorted(self._series)

    def to_csv(self) -> str:
        """Long-form CSV: step,metric,value."""
        out = io.StringIO()
        out.write("step,metric,value\n")
        for name in self.names():
            s = self._series[name]
            for step, value in zip(s.steps, s.values):
                out.write(f"{step},{name},{value!r}\n")
        return out.getvalue()

    def to_registry(self, registry: MetricsRegistry | None = None) -> MetricsRegistry:
        """Bridge this run's series into a :class:`repro.obs.MetricsRegistry`.

        Per series ``name``: a histogram ``name`` over all recorded values, a
        gauge ``name:last`` holding the final value, and a shared counter
        ``telemetry_points`` counting every recorded observation.  Returns
        the (possibly newly created) registry so per-run metrics can be
        merged fleet-wide with :func:`repro.obs.merge_all`.
        """
        registry = registry if registry is not None else MetricsRegistry()
        points = registry.counter("telemetry_points")
        for name in self.names():
            series = self._series[name]
            hist = registry.histogram(name)
            for value in series.values:
                if np.isfinite(value):  # e.g. lr is NaN when the optimizer has none
                    hist.observe(value)
            registry.gauge(f"{name}:last").set(series.values[-1])
            points.inc(len(series))
        return registry

    def summary(self) -> dict[str, dict[str, float]]:
        report = {}
        for name in self.names():
            values = np.array(self._series[name].values)
            report[name] = {
                "count": float(len(values)),
                "first": float(values[0]),
                "last": float(values[-1]),
                "min": float(values.min()),
                "max": float(values.max()),
            }
        return report


class InstrumentedTrainer:
    """A :class:`~repro.core.training.Trainer` wrapper that logs loss,
    examples/s, and the effective learning rate every step."""

    def __init__(self, trainer) -> None:
        self.trainer = trainer
        self.logger = MetricsLogger()
        self._step = 0
        self._examples = 0

    def train_step(self, batch) -> float:
        t0 = time.monotonic()
        loss = self.trainer.train_step(batch)
        elapsed = max(time.monotonic() - t0, 1e-9)
        self._examples += batch.size
        lr = getattr(self.trainer.optimizer, "lr", None)
        if lr is None:
            lr = getattr(self.trainer.optimizer, "current_lr", float("nan"))
        self.logger.record(
            self._step,
            loss=loss,
            examples_per_s=batch.size / elapsed,
            lr=float(lr),
            examples_seen=float(self._examples),
        )
        self._step += 1
        return loss

    def train(self, batches, max_examples: int) -> TrainResult:
        """Train ``max_examples`` more examples through :class:`Trainer`'s
        budget loop (same contract: no batch is pulled past the budget, and
        an empty budget or a stream that ends short of it raises)."""
        return _train_loop(self.train_step, batches, max_examples, None)

    def registry(self) -> MetricsRegistry:
        """This run's metrics as a mergeable registry (see
        :meth:`MetricsLogger.to_registry`)."""
        return self.logger.to_registry()
