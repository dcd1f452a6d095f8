"""Bench (extension): measured hybrid-parallel scaling vs. the predictor.

The acceptance gate for the multi-process trainer: the measured 1 -> 4
worker scaling curve must land within 25% of the simulator-composed
prediction at every point (all predictor parameters are *measured* —
socket latency/bandwidth, contended hop overhead, pickle frame cost —
none fitted to the curve).  The absolute 4-worker speedup floor only
applies on hosts that actually have >= 4 cores; on smaller runners the
predictor models the oversubscription and the error bound still binds.
"""

import pytest

from bench_utils import record, run_once

from repro.experiments import ext_mp_scaling
from repro.core.lanes import available_cores

REL_ERR_BOUND = 0.25
MIN_SPEEDUP_4W = 2.0


def _run():
    return ext_mp_scaling.run(
        worker_counts=(1, 2, 4), batch_size=256, steps=10, reps=3
    )


def test_ext_mp_scaling_crossvalidation(benchmark):
    result = run_once(benchmark, _run)
    record("ext_mp_scaling", ext_mp_scaling.render(result))

    assert [p.workers for p in result.points] == [1, 2, 4]
    for p in result.points:
        assert p.measured_step_s > 0 and p.predicted_step_s > 0
        assert p.rel_err <= REL_ERR_BOUND, (
            f"W={p.workers}: predicted {p.predicted_step_s * 1e3:.2f} ms vs "
            f"measured {p.measured_step_s * 1e3:.2f} ms "
            f"({p.rel_err:.1%} > {REL_ERR_BOUND:.0%})"
        )
    if available_cores() >= 4:
        w4 = result.points[-1]
        assert w4.speedup >= MIN_SPEEDUP_4W, (
            f"4-worker speedup {w4.speedup:.2f}x < {MIN_SPEEDUP_4W}x "
            f"on a {available_cores()}-core host"
        )


def test_ext_mp_scaling_sweep(benchmark):
    results = run_once(
        benchmark,
        ext_mp_scaling.sweep,
        worker_counts=(1, 2),
        batch_sizes=(128, 256),
        mlp_widths=(64, 128),
        steps=8,
        reps=2,
    )
    record("ext_mp_scaling_sweep", ext_mp_scaling.render_sweep(results))
    assert len(results) == 4
    for result in results:
        for p in result.points:
            assert p.measured_step_s > 0 and p.predicted_step_s > 0
