"""Communication analysis: event extraction, message vectorization
placement (the SP2-class cost model is :mod:`repro.model`)."""

from .analysis import CommAnalysis, CommOptions, positions_union
from .combine import combine_messages, combining_stats
from .events import CommEvent, CommReport, ReduceEvent

__all__ = [
    "CommAnalysis",
    "CommOptions",
    "positions_union",
    "combine_messages",
    "combining_stats",
    "CommEvent",
    "CommReport",
    "ReduceEvent",
]
