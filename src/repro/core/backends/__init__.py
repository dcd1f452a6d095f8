"""Pluggable compute backends for the dense training path.

See :mod:`repro.core.backends.base` for the protocol and the registry;
``tests/conformance/`` validates every registered backend against the
``"numpy"`` reference.
"""

from .base import (
    DEFAULT_BACKEND,
    Backend,
    bind_backend,
    get_backend,
    known_backends,
    reference_backend,
    register_backend,
)
from .fused import FusedBackend
from .numpy_ref import NumpyBackend

__all__ = [
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "register_backend",
    "get_backend",
    "known_backends",
    "bind_backend",
    "reference_backend",
    "DEFAULT_BACKEND",
]

# The registration order is the conformance iteration order: the
# reference first, then the fused path that claims bit-identity with it.
register_backend(NumpyBackend())
register_backend(FusedBackend())
