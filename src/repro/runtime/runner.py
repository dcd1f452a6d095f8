"""Parallel, memoized execution of independent experiment grid points.

The figure sweeps (Fig 11/12/13/15 and the fault-tolerance extension) are
embarrassingly parallel: every grid point is a pure function of its
parameters (all seeds included).  :class:`SweepRunner` executes such points
across a ``ProcessPoolExecutor``, consults the content-addressed
:class:`~repro.runtime.cache.ResultCache` before computing anything, and
reports cache hits/misses, point latencies and worker utilization through
the shared :class:`~repro.obs.registry.MetricsRegistry` / span tracer.

Determinism contract: results are returned **in input order**, and every
point carries its own explicit seeds (see :func:`derive_seed`), so
``workers=8`` produces bit-identical results to serial execution — an
invariant pinned by ``tests/test_runtime.py``.

Worker-count selection: ``workers`` <= 1 (the default) runs the points in
process, in order — a serial sweep is this one-worker runner, with the
same retries and :class:`SweepPointError` as a pool.  ``workers`` >= 2
forks a pool whose workers each take their share of this process's free
cores; sensible values are ``min(num_points, free cores)``, which
:func:`default_workers` computes.  Functions crossing the process boundary
must be module-level (picklable); the runner *pre-checks* picklability and
silently falls back to serial for closures, counting the event in
``runtime.sweep.serial_fallback``.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.lanes import free_cores, take_share
from ..obs.registry import MetricsRegistry
from ..obs.tracer import NULL_TRACER, NullTracer, Tracer
from ..resilience.retry import RetryPolicy
from .cache import MISS, ResultCache, code_token, fingerprint

__all__ = [
    "SweepRunner",
    "SweepPointError",
    "PointFailure",
    "derive_seed",
    "default_workers",
]

#: Runner-appropriate defaults: a couple of bounded retries with short
#: backoff.  Worker-process crashes (OOM kill, segfault) are usually
#: transient; deterministic exceptions fail again quickly and are reported.
DEFAULT_SWEEP_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay_s=0.05,
    multiplier=4.0,
    max_delay_s=2.0,
    jitter=0.0,
    deadline_s=60.0,
)


@dataclass(frozen=True)
class PointFailure:
    """A grid point that failed every permitted attempt.

    In ``on_error="partial"`` mode these take the failed points' slots in
    the result list (successes keep theirs), so a sweep with one bad point
    still returns every good result.
    """

    namespace: str
    index: int
    params: dict
    attempts: int
    error: str
    error_type: str

    def describe(self) -> str:
        return (
            f"{self.namespace} point #{self.index} {self.params!r} failed "
            f"after {self.attempts} attempt(s): [{self.error_type}] {self.error}"
        )


class SweepPointError(RuntimeError):
    """A worker exception, wrapped to name the grid point that died.

    The raw pool exception gives no clue which point was responsible; this
    carries the namespace and the exact parameter dict.
    """

    def __init__(self, failure: PointFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A deterministic, order-independent-of-execution seed for one point.

    Stable across processes and Python versions (sha256 of the canonical
    parts, not ``hash()``), so a grid point's RNG stream depends only on
    *what* the point is, never on *when or where* it runs.
    """
    digest = fingerprint({"base": int(base_seed), "parts": list(parts)})
    return int(digest[:12], 16)


def default_workers(num_points: int | None = None) -> int:
    """A sensible pool size: this process's free cores (its share of the
    process tree's, see :func:`~repro.core.lanes.free_cores`), but never
    more than the points and never less than one."""
    cores = free_cores()
    if num_points is None:
        return cores
    return max(1, min(cores, num_points))


def _timed_call(fn: Callable[..., Any], kwargs: dict) -> tuple[Any, float]:
    """Execute one point and measure it (runs inside pool workers)."""
    t0 = time.perf_counter()
    value = fn(**kwargs)
    return value, time.perf_counter() - t0


class SweepRunner:
    """Executes independent grid points, in parallel, through the cache.

    Args:
        workers: pool size; <= 1 means serial in-process execution.
        cache: optional :class:`ResultCache`; when present, points are
            looked up before computing and stored after.
        metrics: registry receiving ``runtime.sweep.*`` and
            ``runtime.cache.*`` series (shared with the cache).
        tracer: span tracer; each :meth:`map` emits one ``runtime`` span.
        retry: bounded-retry policy for failing points and broken pools
            (worker-process crashes); defaults to
            :data:`DEFAULT_SWEEP_RETRY` (3 attempts, short backoff).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        mp_context=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if cache is not None and cache.metrics is not self.metrics:
            # share one registry so cache + sweep counters merge trivially
            cache.metrics = self.metrics
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._mp_context = mp_context
        self.retry = retry if retry is not None else DEFAULT_SWEEP_RETRY

    # -- public API ---------------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        points: Sequence[dict],
        namespace: str | None = None,
        use_cache: bool = True,
        on_error: str = "raise",
    ) -> list[Any]:
        """Evaluate ``fn(**point)`` for every point; results in input order.

        Cached results are returned without recomputation; the remaining
        misses run on the pool (or serially).  ``fn`` must be deterministic
        in its parameters for the cache to be sound.

        Failure semantics: each failing point is retried up to
        ``retry.max_attempts`` times (worker-process crashes restart the
        pool between attempts).  A point that fails every attempt either
        raises :class:`SweepPointError` (``on_error="raise"``, default) or
        leaves a :class:`PointFailure` in its result slot
        (``on_error="partial"``), preserving every successful result.
        Failures are never written to the cache.
        """
        if on_error not in ("raise", "partial"):
            raise ValueError(f"on_error must be 'raise' or 'partial', got {on_error!r}")
        points = list(points)
        ns = namespace or f"{fn.__module__}.{fn.__qualname__}"
        results: list[Any] = [MISS] * len(points)
        cache = self.cache if use_cache else None
        token = code_token(fn) if cache is not None else ""

        miss_indices: list[int] = []
        keys: list[str | None] = [None] * len(points)
        for i, params in enumerate(points):
            if cache is not None:
                key = cache.key(ns, params, code=token)
                keys[i] = key
                value = cache.load(ns, key)
                if value is not MISS:
                    results[i] = value
                    continue
            miss_indices.append(i)

        t_start = time.perf_counter()
        with self.tracer.span(
            f"sweep:{ns}",
            "runtime",
            points=len(points),
            cached=len(points) - len(miss_indices),
            workers=self.workers,
        ):
            busy = self._execute(fn, points, miss_indices, results, ns, on_error)
        wall = time.perf_counter() - t_start

        if cache is not None:
            for i in miss_indices:
                if isinstance(results[i], PointFailure):
                    continue  # never memoize a failure
                cache.store(ns, keys[i], results[i], params=points[i])

        counter = self.metrics.counter("runtime.sweep.points")
        counter.inc(len(points))
        counter.labels(namespace=ns).inc(len(points))
        self.metrics.counter("runtime.sweep.computed").inc(len(miss_indices))
        if miss_indices and wall > 0:
            effective = min(max(self.workers, 1), len(miss_indices))
            self.metrics.gauge("runtime.sweep.utilization").set(
                min(1.0, busy / (wall * effective))
            )
            self.metrics.gauge("runtime.sweep.workers").set(effective)
        return results

    # -- execution ----------------------------------------------------------

    def _execute(
        self,
        fn: Callable[..., Any],
        points: list[dict],
        miss_indices: list[int],
        results: list[Any],
        ns: str,
        on_error: str,
    ) -> float:
        """Run the missing points; fills ``results``; returns busy seconds.

        Drives the bounded-retry loop: each round runs all still-pending
        points (one fresh pool per round, so a crashed worker process —
        which poisons the whole ``ProcessPoolExecutor`` — cannot take
        subsequent attempts down with it), then either retries the failures
        after a backoff or finalizes them as :class:`PointFailure`.
        """
        if not miss_indices:
            return 0.0
        busy = 0.0
        parallel = (
            self.workers >= 2 and len(miss_indices) > 1 and self._picklable(fn, points)
        )
        pending = list(miss_indices)
        attempt = 0  # rounds completed so far; all pending points share it
        errors: dict[int, BaseException] = {}
        while pending:
            if attempt >= 1:
                self.metrics.counter("runtime.sweep.point_retries").inc(len(pending))
                delay = self.retry.backoff_s(attempt)
                if delay > 0:
                    time.sleep(delay)
            # Once we have committed to process isolation, retries stay in a
            # pool even for a single pending point: a point that kills its
            # process must never be re-run inside the parent.
            if parallel:
                dt, failed = self._run_pool(fn, points, pending, results, errors)
            else:
                dt, failed = self._run_serial(fn, points, pending, results, errors)
            busy += dt
            attempt += 1
            if failed and attempt >= self.retry.max_attempts:
                for i in failed:
                    exc = errors[i]
                    failure = PointFailure(
                        namespace=ns,
                        index=i,
                        params=dict(points[i]),
                        attempts=attempt,
                        error=str(exc) or exc.__class__.__name__,
                        error_type=type(exc).__name__,
                    )
                    self.metrics.counter("runtime.sweep.point_failures").inc()
                    self.metrics.counter("runtime.sweep.point_failures").labels(
                        namespace=ns
                    ).inc()
                    if on_error == "raise":
                        raise SweepPointError(failure) from exc
                    results[i] = failure
                return busy
            pending = failed
        return busy

    def _run_pool(
        self,
        fn: Callable[..., Any],
        points: list[dict],
        pending: list[int],
        results: list[Any],
        errors: dict[int, BaseException],
    ) -> tuple[float, list[int]]:
        """One parallel round; returns (busy seconds, indices that failed)."""
        durations = self.metrics.histogram("runtime.sweep.point_seconds")
        busy = 0.0
        failed: list[int] = []
        pool_broke = False
        max_workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(
            max_workers=max_workers, mp_context=self._mp_context,
            # each worker takes its share of this process's free cores, so
            # its lanes, BLAS threads and any nested pool fit in it
            initializer=take_share, initargs=(free_cores() // max_workers,),
        ) as pool:
            futures = [(i, pool.submit(_timed_call, fn, points[i])) for i in pending]
            for i, future in futures:
                try:
                    value, dt = future.result()
                except BrokenProcessPool as exc:
                    # One crashed worker poisons every outstanding future;
                    # count the pool loss once, mark the rest for retry.
                    if not pool_broke:
                        pool_broke = True
                        self.metrics.counter("runtime.sweep.pool_restarts").inc()
                    errors[i] = exc
                    failed.append(i)
                except Exception as exc:
                    errors[i] = exc
                    failed.append(i)
                else:
                    results[i] = value
                    durations.observe(dt)
                    busy += dt
        return busy, failed

    def _run_serial(
        self,
        fn: Callable[..., Any],
        points: list[dict],
        pending: list[int],
        results: list[Any],
        errors: dict[int, BaseException],
    ) -> tuple[float, list[int]]:
        """One serial round; returns (busy seconds, indices that failed)."""
        durations = self.metrics.histogram("runtime.sweep.point_seconds")
        busy = 0.0
        failed: list[int] = []
        for i in pending:
            try:
                value, dt = _timed_call(fn, points[i])
            except Exception as exc:
                errors[i] = exc
                failed.append(i)
            else:
                results[i] = value
                durations.observe(dt)
                busy += dt
        return busy, failed

    def _picklable(self, fn: Callable[..., Any], points: list[dict]) -> bool:
        """Pre-flight check: can this work cross a process boundary?"""
        try:
            pickle.dumps(fn)
            return True
        except Exception:
            self.metrics.counter("runtime.sweep.serial_fallback").inc()
            return False
