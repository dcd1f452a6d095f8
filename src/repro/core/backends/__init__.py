"""Pluggable compute backends for the dense training path.

See :mod:`repro.core.backends.base` for the protocol and the registry;
``tests/conformance/`` validates every registered backend against the
``"numpy"`` reference.
"""

from .base import (
    DEFAULT_BACKEND,
    Backend,
    available_backends,
    get_backend,
    known_backends,
    reference_backend,
    register_backend,
    resolve_backend,
)
from .fused import FusedBackend
from .numpy_ref import NumpyBackend
from .threaded import ThreadedBackend

__all__ = [
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "ThreadedBackend",
    "register_backend",
    "get_backend",
    "known_backends",
    "available_backends",
    "reference_backend",
    "resolve_backend",
    "DEFAULT_BACKEND",
]

# The registration order is the conformance/benchmark iteration order:
# reference first, then the claims-bit-identity fused path, then the
# tolerance-bounded threaded path.
register_backend(NumpyBackend())
register_backend(FusedBackend())
register_backend(ThreadedBackend())
