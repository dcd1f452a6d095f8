"""Shared helpers for the benchmark harness.

Each benchmark regenerates one figure/table of the paper, asserts its
headline shape, and records the rendered output under
``benchmarks/results/`` so the reproduction artifacts survive pytest's
output capturing.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print the rendered figure and persist it to results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic and some are expensive (real
    training), so one round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
