"""Shared machinery for the backend conformance suite.

Every registered backend is validated against the ``"numpy"`` reference:
*bit-identically* (``np.array_equal``) when the backend claims
``bit_identical``, within its declared :meth:`Backend.tolerance` bound
otherwise.

Backends under test are named by *specs* — every name in
:func:`repro.core.known_backends` (``"numpy"``, ``"fused"``, plus anything
a plugin registered) — so hypothesis tests can parametrize over plain
strings (function-scoped fixtures don't mix with ``@given``).
"""

from __future__ import annotations

import numpy as np

from repro.core import Workspace, known_backends
from repro.core.backends import Backend

DTYPES = [np.float64, np.float32]

BACKEND_SPECS = list(known_backends())


def make_workspace(backend: Backend) -> Workspace | None:
    """A fresh arena when the backend needs one, else ``None``."""
    return Workspace() if backend.uses_workspace else None


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
