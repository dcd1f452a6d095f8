"""Experiment runtime: parallel sweep execution + memoized results.

Public surface:

* :class:`SweepRunner` — executes independent grid points across a process
  pool with cache lookups, obs-integrated telemetry, and bounded retries
  for worker-process crashes (``on_error="partial"`` returns
  :class:`PointFailure` slots instead of raising :class:`SweepPointError`);
* :class:`ResultCache` — content-addressed on-disk JSON result store
  (config-hash -> value) with code-change invalidation;
* :func:`derive_seed` — deterministic per-point seed derivation;
* :func:`default_workers` — worker-count selection helper.

See ``DESIGN.md`` ("repro.runtime") for the cache key scheme and the
determinism contract (parallel == serial, bit for bit).
"""

from ..core.lanes import available_cores
from .cache import MISS, ResultCache, canonical, canonical_json, code_token, fingerprint
from .runner import (
    PointFailure,
    SweepPointError,
    SweepRunner,
    default_workers,
    derive_seed,
)

__all__ = [
    "MISS",
    "PointFailure",
    "ResultCache",
    "SweepPointError",
    "SweepRunner",
    "available_cores",
    "canonical",
    "canonical_json",
    "code_token",
    "default_workers",
    "derive_seed",
    "fingerprint",
]
