"""Communication analysis: event extraction, message vectorization
placement, and the SP2-class cost model."""

from .analysis import CommAnalysis, CommOptions, positions_union
from .combine import combine_messages, combining_stats
from .costmodel import SP2, MachineModel, flops_of_expr
from .events import CommEvent, CommReport, ReduceEvent

__all__ = [
    "CommAnalysis",
    "CommOptions",
    "positions_union",
    "combine_messages",
    "combining_stats",
    "SP2",
    "MachineModel",
    "flops_of_expr",
    "CommEvent",
    "CommReport",
    "ReduceEvent",
]
