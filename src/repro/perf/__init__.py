"""Analytic performance estimation over compiled programs."""

from .memory import MemoryReport, memory_report
from .estimator import (
    EventCost,
    NestCost,
    PerfEstimate,
    PerfEstimator,
    StmtCost,
)

__all__ = [
    "MemoryReport",
    "memory_report",
    "EventCost",
    "NestCost",
    "PerfEstimate",
    "PerfEstimator",
    "StmtCost",
]
