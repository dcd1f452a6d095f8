"""repro — reproduction of "Understanding Training Efficiency of Deep
Learning Recommendation Models at Scale" (Acun et al., HPCA 2021).

Subpackages
-----------

``repro.core``
    From-scratch numpy DLRM: embeddings (hash trick, pooled multi-hot
    lookups, sparse gradients), MLP stacks, feature interaction, losses,
    metrics (normalized entropy), sparse-aware optimizers, training loop,
    hyper-parameter search.
``repro.data``
    Synthetic workload substrate: dense/sparse feature generators with
    power-law feature lengths and Zipf index skew, a latent-factor teacher
    click model, batch readers.
``repro.hardware``
    Platform specs of Table I (dual-socket CPU, Big Basin, Zion), roofline
    device timing, interconnect collectives, memory pools, power.
``repro.placement``
    The four embedding-table placement strategies of Figure 8 plus the
    packing planner (table-wise, row-wise, replication, hybrid spill).
``repro.perf``
    Analytical performance model mapping (model config, platform,
    placement, batch) to iteration time, throughput and perf/watt.
``repro.distributed``
    Functional EASGD training (real numpy; each worker a ``Trainer``) and
    an event-level simulation of the CPU training pipeline.
``repro.fleet``
    Fleet-scale populations: workload families, server-count allocation,
    utilization telemetry.
``repro.obs``
    Observability layer: nestable span tracing with Chrome-trace export,
    and a counter/gauge/histogram metrics registry with fleet-wide
    merging.  Off by default (NullTracer) on every hot path.
``repro.runtime``
    Experiment runtime: parallel memoized sweep runner with deterministic
    per-point seeding, a content-addressed on-disk result cache, and
    bounded retries for worker-process crashes.
``repro.resilience``
    Fault injection and recovery: declarative fault plans (MTBF crashes,
    request drops, degradation windows), retry policies with capped
    backoff, checkpoint-restore cost model with Young/Daly intervals,
    and the goodput ledger used by the cluster simulation.
``repro.analysis``
    KDE, distribution statistics, power-law fits, ASCII table rendering.
``repro.configs``
    Production models of Table II and the Section V sweep grids.
"""

from . import analysis, configs, core, data, distributed, fleet, hardware, perf, placement

__version__ = "1.0.0"

__all__ = [
    "core",
    "data",
    "hardware",
    "placement",
    "perf",
    "distributed",
    "fleet",
    "analysis",
    "configs",
    "__version__",
]
