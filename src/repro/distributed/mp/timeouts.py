"""One knob for every supervisory timeout in the mp package.

The hybrid trainer and its probes use joins and queue gets purely as
*wedge detection* — on a healthy host they never fire, but a
slow or oversubscribed CI box can trip them spuriously.  Instead of
hardcoded ``timeout=30.0``/``60.0`` literals scattered across the
package, every such wait draws from one :class:`MpTimeouts` value, and the
whole set scales with a single environment variable::

    REPRO_MP_TIMEOUT_SCALE=4 python -m pytest tests/test_mp.py

Defaults are the historical literals, so behaviour is unchanged unless
the knob is turned.  ``set_timeouts`` exists for tests that want exact
values; worker processes inherit the environment (and any override set
before ``fork``), so parent and children always agree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["MpTimeouts", "get_timeouts", "set_timeouts"]

#: Environment variable multiplying every timeout below.
SCALE_ENV = "REPRO_MP_TIMEOUT_SCALE"


@dataclass(frozen=True)
class MpTimeouts:
    """Supervisory timeouts (seconds) for the mp package.

    Attributes:
        join_s: process join waits on healthy shutdown paths (worker
            joins after reports, probe child joins).
        probe_s: the parent's queue gets in the comm probes (each probe
            child's measured time).
        reap_s: post-crash joins, where the process is already believed
            dead and the join only collects the exit code.
    """

    join_s: float = 30.0
    probe_s: float = 60.0
    reap_s: float = 5.0

    def __post_init__(self) -> None:
        for name in ("join_s", "probe_s", "reap_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def scaled(self, factor: float) -> "MpTimeouts":
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            join_s=self.join_s * factor,
            probe_s=self.probe_s * factor,
            reap_s=self.reap_s * factor,
        )

    @classmethod
    def from_env(cls) -> "MpTimeouts":
        """Defaults times ``$REPRO_MP_TIMEOUT_SCALE`` (1.0 when unset)."""
        raw = os.environ.get(SCALE_ENV)
        base = cls()
        if not raw:
            return base
        try:
            factor = float(raw)
        except ValueError as err:
            raise ValueError(f"{SCALE_ENV} must be a number, got {raw!r}") from err
        return base.scaled(factor)


_OVERRIDE: MpTimeouts | None = None


def get_timeouts() -> MpTimeouts:
    """The active timeout set: explicit override, else environment-scaled."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return MpTimeouts.from_env()


def set_timeouts(timeouts: MpTimeouts | None) -> None:
    """Install an explicit override (``None`` restores env-derived values)."""
    global _OVERRIDE
    _OVERRIDE = timeouts
