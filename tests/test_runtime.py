"""Tests for repro.runtime: cache keying/storage and the sweep runner.

The two contracts pinned here:

* **Cache soundness** — a key changes whenever the namespace, the point
  function's code, or any parameter changes; values round-trip exactly.
* **Determinism** — ``SweepRunner`` returns results in input order and a
  parallel run is bit-identical to a serial one (the figure sweeps rely on
  this to keep golden numbers stable under ``--workers``).
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.core.lanes import blas_threads, free_cores, lane_count
from repro.obs.registry import MetricsRegistry
from repro.resilience import RetryPolicy
from repro.runtime import (
    MISS,
    PointFailure,
    ResultCache,
    SweepPointError,
    SweepRunner,
    canonical_json,
    code_token,
    default_workers,
    derive_seed,
    fingerprint,
)

# Fork start method: cheap worker startup and inherited sys.modules, so the
# module-level point functions below are picklable into workers.
FORK = multiprocessing.get_context("fork")


def square_point(x: int) -> int:
    """Module-level, picklable grid point."""
    return x * x


def noisy_point(x: int, seed: int) -> float:
    """A point whose value depends only on its explicit seed (derive_seed)."""
    rng = np.random.default_rng(seed)
    return float(x + rng.standard_normal())


def lanes_point(x: int) -> tuple[int, int | None]:
    """The lane width a train step run by this point would take, and the
    threads its BLAS would run a GEMM on."""
    return lane_count(), blas_threads()


def _model() -> ModelConfig:
    return ModelConfig(
        name="rt",
        num_dense=6,
        tables=uniform_tables(2, 40, dim=4, mean_lookups=2.0),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((6,)),
        interaction=InteractionType.DOT,
    )


# ---------------------------------------------------------------------------
# canonicalization + keys
# ---------------------------------------------------------------------------


class TestCanonical:
    def test_dict_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_dataclass_and_enum_canonicalize(self):
        a = fingerprint({"model": _model()})
        b = fingerprint({"model": _model()})
        assert a == b

    def test_config_change_changes_key(self):
        import dataclasses

        other = dataclasses.replace(_model(), num_dense=7)
        assert fingerprint({"m": _model()}) != fingerprint({"m": other})

    def test_ndarray_content_keyed(self):
        x = np.arange(5)
        assert fingerprint(x) == fingerprint(np.arange(5))
        assert fingerprint(x) != fingerprint(np.arange(6))

    def test_numpy_scalars_match_python(self):
        assert fingerprint(np.int64(3)) == fingerprint(3)

    def test_uncanonicalizable_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json(object())

    def test_code_token_tracks_source(self):
        assert code_token(square_point) == code_token(square_point)
        assert code_token(square_point) != code_token(noisy_point)

    def test_code_token_override(self):
        class Fn:
            __code_token__ = "stable-token"

            def __call__(self):  # pragma: no cover
                return 0

        assert code_token(Fn()) == "stable-token"


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "fig15", 128) == derive_seed(0, "fig15", 128)

    def test_sensitive_to_parts_and_base(self):
        seeds = {
            derive_seed(0, "a"),
            derive_seed(0, "b"),
            derive_seed(1, "a"),
            derive_seed(0, "a", 1),
        }
        assert len(seeds) == 4

    def test_fits_in_rng_seed_range(self):
        s = derive_seed(123, "x")
        assert 0 <= s < 2**48
        np.random.default_rng(s)  # must be a valid seed


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_roundtrip_exact_floats(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = {"ne": 0.1 + 0.2, "steps": 7}
        key = cache.key("ns", {"x": 1})
        cache.store("ns", key, value, params={"x": 1})
        loaded = cache.load("ns", key)
        assert loaded == value
        assert loaded["ne"] == value["ne"]  # bit-exact via repr round-trip

    def test_miss_sentinel(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("ns", cache.key("ns", {"x": 2})) is MISS

    def test_key_sensitivity(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key("ns", {"x": 1}, code="c1")
        assert cache.key("ns", {"x": 2}, code="c1") != base
        assert cache.key("other", {"x": 1}, code="c1") != base
        assert cache.key("ns", {"x": 1}, code="c2") != base

    def test_cached_none_distinct_from_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("ns", {})
        cache.store("ns", key, None)
        assert cache.load("ns", key) is None

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        key = cache.key("ns", {"x": 1})
        cache.store("ns", key, 42)
        assert cache.load("ns", key) is MISS
        assert cache.entries() == []

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for x in range(3):
            cache.store("ns", cache.key("ns", {"x": x}), x)
        assert len(cache.entries()) == 3
        assert cache.size_bytes() > 0
        assert cache.clear() == 3
        assert cache.entries() == []
        stats = cache.stats()
        assert stats["stores"] == 3

    def test_namespace_with_separator_is_safe(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("a/b", {})
        cache.store("a/b", key, 1)
        assert cache.load("a/b", key) == 1
        assert all(tmp_path in p.parents or p.is_relative_to(tmp_path) for p in cache.entries())


# ---------------------------------------------------------------------------
# SweepRunner
# ---------------------------------------------------------------------------


class TestSweepRunner:
    def test_results_in_input_order(self):
        runner = SweepRunner(workers=1)
        out = runner.map(square_point, [{"x": x} for x in (3, 1, 2)])
        assert out == [9, 1, 4]

    def test_parallel_bit_identical_to_serial(self):
        points = [{"x": x, "seed": derive_seed(0, "noisy", x)} for x in range(8)]
        serial = SweepRunner(workers=1).map(noisy_point, points)
        parallel = SweepRunner(workers=4, mp_context=FORK).map(noisy_point, points)
        assert serial == parallel  # float equality: bit-identical

    def test_closure_falls_back_to_serial(self):
        registry = MetricsRegistry()
        runner = SweepRunner(workers=4, metrics=registry, mp_context=FORK)
        y = 10
        out = runner.map(lambda x: x + y, [{"x": x} for x in (1, 2, 3)])
        assert out == [11, 12, 13]
        assert registry.get("runtime.sweep.serial_fallback").value == 1

    def test_cache_hits_skip_recompute(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        runner = SweepRunner(workers=1, cache=cache, metrics=registry)
        points = [{"x": x} for x in range(5)]
        first = runner.map(square_point, points, namespace="sq")
        second = runner.map(square_point, points, namespace="sq")
        assert first == second == [0, 1, 4, 9, 16]
        assert registry.get("runtime.cache.stores").value == 5
        assert registry.get("runtime.cache.hits").value == 5
        # second map computed nothing
        assert registry.get("runtime.sweep.computed").value == 5

    def test_parallel_warm_cache_equivalence(self, tmp_path):
        points = [{"x": x, "seed": derive_seed(1, x)} for x in range(6)]
        serial = SweepRunner(workers=1).map(noisy_point, points)
        cache = ResultCache(tmp_path)
        par = SweepRunner(workers=3, cache=cache, mp_context=FORK)
        cold = par.map(noisy_point, points, namespace="warm")
        warm = par.map(noisy_point, points, namespace="warm")
        assert serial == cold == warm

    def test_use_cache_false_bypasses(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        runner.map(square_point, [{"x": 2}], use_cache=False)
        assert cache.entries() == []

    def test_metrics_and_span_emitted(self):
        from repro.obs import Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        runner = SweepRunner(workers=1, metrics=registry, tracer=tracer)
        runner.map(square_point, [{"x": x} for x in range(4)], namespace="m")
        assert registry.get("runtime.sweep.points").value == 4
        labeled = registry.get("runtime.sweep.points").labels(namespace="m")
        assert labeled.value == 4
        spans = [s for s in tracer.spans if s.category == "runtime"]
        assert len(spans) == 1 and spans[0].name == "sweep:m"

    def test_pool_workers_size_lanes_from_their_share(self):
        """Each of a pool's workers keeps to its share of the cores — its
        lanes and its BLAS threads — so a point that trains does not run
        on its siblings' cores; the parent's own readings do not move."""
        before = lanes_point(0)
        share = max(1, free_cores() // 2)
        blas = None if before[1] is None else min(before[1], share)
        runner = SweepRunner(workers=2, mp_context=FORK)
        points = [{"x": x} for x in range(4)]
        assert runner.map(lanes_point, points) == [(share, blas)] * 4
        assert lanes_point(0) == before

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=-1)

    def test_default_workers(self):
        assert default_workers(1) == 1
        assert 1 <= default_workers() <= 256
        assert default_workers(10**9) == default_workers()


# ---------------------------------------------------------------------------
# figure sweeps through the runner (the contract the goldens rely on)
# ---------------------------------------------------------------------------


#: (module, small run() kwargs) for every sweep that goes through a runner
FIGURE_SWEEPS = [
    ("fig11_batch_scaling", {}),
    ("fig12_hash_scaling", {}),
    ("fig13_mlp_dims", {}),
    ("fig15_accuracy", dict(baseline_batch=64, gpu_batches=(128,), example_budget=1536,
                            tuning_trials=2, num_seeds=1)),
    ("ext_fault_tolerance", dict(horizon_s=0.5, mtbf_s=1.0, intervals=(0.05, 0.2))),
]


@pytest.mark.parametrize("name,kw", FIGURE_SWEEPS, ids=[n for n, _ in FIGURE_SWEEPS])
def test_figure_sweep_parity(name, kw, tmp_path):
    """One in-process worker == a two-worker pool, cold and warm cache."""
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    serial = module.run(**kw)
    runner = SweepRunner(workers=2, cache=ResultCache(tmp_path), mp_context=FORK)
    cold = module.run(**kw, runner=runner)
    warm = module.run(**kw, runner=runner)
    assert serial == cold == warm


# ---------------------------------------------------------------------------
# corrupt-entry eviction


class TestCacheCorruption:
    def _entry_path(self, cache, ns, key):
        return cache._path(ns, key)

    def test_unparseable_json_is_evicted_and_counted(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        key = cache.key("ns", {"x": 1})
        cache.store("ns", key, 42)
        path = self._entry_path(cache, "ns", key)
        path.write_text("{not json", encoding="utf-8")
        assert cache.load("ns", key) is MISS
        assert not path.exists()  # evicted
        assert registry.get("runtime.cache.corrupt").value == 1
        assert registry.get("runtime.cache.misses").value == 1

    def test_json_without_value_key_is_corrupt(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        key = cache.key("ns", {"x": 2})
        cache.store("ns", key, 7)
        path = self._entry_path(cache, "ns", key)
        path.write_text('{"key": "orphan", "namespace": "ns"}', encoding="utf-8")
        assert cache.load("ns", key) is MISS
        assert not path.exists()
        assert registry.get("runtime.cache.corrupt").value == 1

    def test_non_dict_json_is_corrupt(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        key = cache.key("ns", {"x": 3})
        path = self._entry_path(cache, "ns", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.load("ns", key) is MISS
        assert registry.get("runtime.cache.corrupt").value == 1

    def test_recompute_after_eviction_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        points = [{"x": i} for i in range(3)]
        first = runner.map(square_point, points, namespace="sq")
        # corrupt one stored entry behind the cache's back
        victim = cache.entries()[0]
        victim.write_text("garbage", encoding="utf-8")
        again = runner.map(square_point, points, namespace="sq")
        assert again == first
        assert cache.stats()["corrupt"] == 1

    def test_stats_include_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats()["corrupt"] == 0.0


# ---------------------------------------------------------------------------
# worker-crash recovery

_CRASH_SENTINEL_ENV = "REPRO_TEST_CRASH_SENTINEL"

#: zero-delay retries: tests should not sleep
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.0, multiplier=1.0, max_delay_s=0.0,
    jitter=0.0, deadline_s=1.0,
)


def crash_once_point(x: int) -> int:
    """Hard-kills its worker process the first time x == 2 (sentinel file
    marks the crash), succeeds on retry — a transient OOM-kill stand-in."""
    sentinel = os.environ.get(_CRASH_SENTINEL_ENV)
    if x == 2 and sentinel and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(13)
    return x * 10


def always_failing_point(x: int) -> int:
    if x == 2:
        raise ValueError("deterministically bad point")
    return x + 100


class TestSweepCrashRecovery:
    def test_transient_worker_crash_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_CRASH_SENTINEL_ENV, str(tmp_path / "crashed"))
        registry = MetricsRegistry()
        runner = SweepRunner(
            workers=2, metrics=registry, mp_context=FORK, retry=FAST_RETRY
        )
        out = runner.map(
            crash_once_point, [{"x": i} for i in range(5)], use_cache=False
        )
        # the sweep completed: the crashed point was retried on a fresh pool
        assert out == [0, 10, 20, 30, 40]
        assert (tmp_path / "crashed").exists()
        assert registry.get("runtime.sweep.pool_restarts").value >= 1
        assert registry.get("runtime.sweep.point_retries").value >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permanent_failure_raises_named_error(self, workers):
        runner = SweepRunner(workers=workers, mp_context=FORK, retry=FAST_RETRY)
        with pytest.raises(SweepPointError) as err:
            runner.map(
                always_failing_point, [{"x": i} for i in range(4)], use_cache=False
            )
        failure = err.value.failure
        assert failure.params == {"x": 2}
        assert failure.index == 2
        assert failure.attempts == FAST_RETRY.max_attempts
        assert failure.error_type == "ValueError"
        assert isinstance(err.value.__cause__, ValueError)

    def test_partial_mode_keeps_successes(self):
        registry = MetricsRegistry()
        runner = SweepRunner(
            workers=2, metrics=registry, mp_context=FORK, retry=FAST_RETRY
        )
        out = runner.map(
            always_failing_point,
            [{"x": i} for i in range(4)],
            use_cache=False,
            on_error="partial",
        )
        assert out[0] == 100 and out[1] == 101 and out[3] == 103
        assert isinstance(out[2], PointFailure)
        assert "x': 2" in out[2].describe()
        assert registry.get("runtime.sweep.point_failures").value == 1

    def test_partial_mode_serial_path(self):
        runner = SweepRunner(workers=1, retry=FAST_RETRY)
        out = runner.map(
            always_failing_point,
            [{"x": i} for i in range(4)],
            use_cache=False,
            on_error="partial",
        )
        assert isinstance(out[2], PointFailure)
        assert out[3] == 103

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(
            workers=1, cache=cache, retry=FAST_RETRY
        )
        runner.map(
            always_failing_point,
            [{"x": i} for i in range(4)],
            namespace="boom",
            on_error="partial",
        )
        bad_key = cache.key_for(always_failing_point, {"x": 2}, namespace="boom")
        good_key = cache.key_for(always_failing_point, {"x": 0}, namespace="boom")
        assert cache.load("boom", bad_key) is MISS
        assert cache.load("boom", good_key) == 100

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner().map(square_point, [{"x": 1}], on_error="ignore")
