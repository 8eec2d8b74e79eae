"""Simulated distributed-memory machine: per-node memory with validity
tracking, virtual clocks, and the SPMD execution engine."""

from .lowering import LoweredIR, lower_procedure
from .memory import NodeMemory, initialize_array, ownership_mask, ownership_masks
from .simulator import TIERS, SPMDSimulator, simulate
from .stats import Clocks, TrafficStats

__all__ = [
    "NodeMemory",
    "initialize_array",
    "ownership_mask",
    "ownership_masks",
    "LoweredIR",
    "lower_procedure",
    "SPMDSimulator",
    "simulate",
    "TIERS",
    "Clocks",
    "TrafficStats",
]
