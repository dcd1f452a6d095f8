"""Fault injection, retries, and checkpoint-recovery economics.

The paper's asynchronous production design (§III-A.6, §IV-B) is motivated
by resilience at scale: with hundreds of trainers and parameter servers,
host failures and degraded components are routine, and async (EASGD +
Hogwild) training degrades gracefully where fully-synchronous training
stalls.  This package supplies the three ingredients every layer shares:

* :mod:`~repro.resilience.faults` — declarative :class:`FaultPlan`
  (MTBF-sampled and scheduled crashes, transient request drops,
  degradation windows) and the deterministic :class:`FaultInjector`;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` with capped
  exponential backoff + jitter and per-attempt deadlines;
* :mod:`~repro.resilience.recovery` — checkpoint/restore cost model
  (bytes over NIC + memory bandwidth), Young/Daly optimal checkpoint
  interval, and the :class:`GoodputLedger` that turns completed/lost/
  recovered work into the headline **goodput** metric.

Consumers: :mod:`repro.distributed.cluster` (event-level failures and
recovery: the synchronous stall and the async continuation),
:mod:`repro.distributed.sync` (EASGD worker dropout and rejoin),
:mod:`repro.core.training` (kill-and-restore), and
:mod:`repro.runtime.runner` (worker-process crash retries).  See
``docs/resilience.md`` for the full fault model and the goodput math.
"""

from .faults import (
    ComponentKind,
    DegradationWindow,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from .recovery import (
    GoodputLedger,
    checkpoint_write_time_s,
    expected_goodput_fraction,
    model_checkpoint_bytes,
    restore_time_s,
    young_daly_interval_s,
)
from .retry import DEFAULT_RETRY_POLICY, RetriesExhausted, RetryPolicy

__all__ = [
    "ComponentKind",
    "DegradationWindow",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GoodputLedger",
    "RetryPolicy",
    "RetriesExhausted",
    "DEFAULT_RETRY_POLICY",
    "checkpoint_write_time_s",
    "expected_goodput_fraction",
    "model_checkpoint_bytes",
    "restore_time_s",
    "young_daly_interval_s",
]
