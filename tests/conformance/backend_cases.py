"""Shared machinery for the backend conformance suite.

Every registered backend is validated against the ``"numpy"`` reference:
*bit-identically* (``np.array_equal``) when the backend claims
``bit_identical``, within its declared :meth:`Backend.tolerance` bound
otherwise.

Backends under test are named by *specs* so hypothesis tests can
parametrize over plain strings (function-scoped fixtures don't mix with
``@given``):

* every name in :func:`repro.core.known_backends` (``"numpy"``,
  ``"fused"``, ``"threaded"``, plus anything a plugin registered), and
* ``"threaded-forced"`` — a :class:`ThreadedBackend` built with
  ``workers=2, min_rows=4`` so the row-split GEMM path actually runs
  even on single-core CI machines and on the tiny shapes hypothesis
  draws (the registered instance would fall through to serial there).

``REPRO_CONFORMANCE_BACKENDS`` (comma-separated specs) restricts the
suite to a subset — the CI matrix runs one backend per job.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core import Workspace, get_backend, known_backends
from repro.core.backends import Backend, reference_backend
from repro.core.backends.threaded import ThreadedBackend

DTYPES = [np.float64, np.float32]

_DEFAULT_SPECS = list(known_backends()) + ["threaded-forced"]
_env = os.environ.get("REPRO_CONFORMANCE_BACKENDS", "")
BACKEND_SPECS = [s.strip() for s in _env.split(",") if s.strip()] or _DEFAULT_SPECS

_INSTANCES: dict[str, Backend] = {}


def make_backend(spec: str) -> Backend:
    """The backend instance under test for a spec (cached — the forced
    threaded instance keeps one pool for the whole suite)."""
    if spec not in _INSTANCES:
        if spec == "threaded-forced":
            _INSTANCES[spec] = ThreadedBackend(workers=2, min_rows=4)
        else:
            _INSTANCES[spec] = get_backend(spec)
    return _INSTANCES[spec]


def make_workspace(backend: Backend) -> Workspace | None:
    """A fresh arena when the backend needs one, else ``None``."""
    return Workspace() if backend.uses_workspace else None


def reference() -> Backend:
    return reference_backend()


def assert_backend_matches(backend: Backend, actual, expected, err: str = "") -> None:
    """The conformance contract for one array: exact when the backend
    claims bit-identity, tolerance-bounded otherwise (dtype always)."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype, (
        f"{err}: dtype {actual.dtype} != reference {expected.dtype}"
    )
    if backend.bit_identical:
        np.testing.assert_array_equal(actual, expected, err_msg=err)
    else:
        rtol, atol = backend.tolerance(expected.dtype)
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol, err_msg=err)


def assert_scalar_matches(backend: Backend, actual: float, expected: float,
                          err: str = "") -> None:
    if backend.bit_identical:
        assert actual == expected, f"{err}: {actual!r} != {expected!r}"
    else:
        rtol, atol = backend.tolerance(np.float64)
        assert np.isclose(actual, expected, rtol=rtol, atol=atol), (
            f"{err}: {actual!r} !~ {expected!r}"
        )


def rand(seed: int, shape, dtype) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)
