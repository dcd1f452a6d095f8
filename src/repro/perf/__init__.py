"""Analytical performance model: operator costs -> iteration time -> throughput."""

from .calibration import DEFAULT_CALIBRATION, Calibration
from .pipeline import (
    READER_EXAMPLES_PER_SEC,
    IterationBreakdown,
    ThroughputReport,
    cpu_cluster_throughput,
    gpu_server_throughput,
)
from .roofline import OperatorProfile, RooflineReport, roofline_report
from .setup_optimizer import (
    CandidateSetup,
    Objective,
    SetupSearchResult,
    optimize_setup,
)
from .whatif import (
    QuantizationCapacityRow,
    cached_system_memory_throughput,
    quantized_capacity_report,
)
from . import ops

__all__ = [
    "OperatorProfile",
    "RooflineReport",
    "roofline_report",
    "Objective",
    "CandidateSetup",
    "SetupSearchResult",
    "optimize_setup",
    "cached_system_memory_throughput",
    "quantized_capacity_report",
    "QuantizationCapacityRow",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "IterationBreakdown",
    "ThroughputReport",
    "cpu_cluster_throughput",
    "gpu_server_throughput",
    "READER_EXAMPLES_PER_SEC",
    "ops",
]
