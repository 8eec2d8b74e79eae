"""Simulated distributed-memory machine: one store of every rank's
copies with validity tracking, virtual clocks, and the SPMD execution engine."""

from .lowering import LoweredIR, lower_procedure
from .memory import Store, ownership_masks
from .simulator import TIERS, SPMDSimulator, simulate
from .stats import Clocks, TrafficStats

__all__ = [
    "Store",
    "ownership_masks",
    "LoweredIR",
    "lower_procedure",
    "SPMDSimulator",
    "simulate",
    "TIERS",
    "Clocks",
    "TrafficStats",
]
