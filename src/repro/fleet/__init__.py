"""Fleet simulation: workload populations (Fig 2, 9) and utilization telemetry (Fig 5)."""

from .assignment import (
    FleetAssignment,
    WorkloadAssignment,
    assign_fleet,
    sample_workload_population,
)
from .telemetry import (
    UtilizationSamples,
    aggregate_run_registries,
    collect_utilization_samples,
    jitter_model,
)
from .workloads import (
    WORKLOAD_FAMILIES,
    ServerCounts,
    TrainingRun,
    WorkloadFamily,
    sample_fleet_runs,
    sample_ranking_model,
    sample_server_counts,
)

__all__ = [
    "WorkloadFamily",
    "WORKLOAD_FAMILIES",
    "TrainingRun",
    "sample_fleet_runs",
    "sample_ranking_model",
    "ServerCounts",
    "sample_server_counts",
    "UtilizationSamples",
    "collect_utilization_samples",
    "aggregate_run_registries",
    "jitter_model",
    "FleetAssignment",
    "WorkloadAssignment",
    "assign_fleet",
    "sample_workload_population",
]
