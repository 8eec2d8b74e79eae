"""Execution back ends: shared structured walker, expression
evaluation, and the sequential reference interpreter."""

from .bounds import ShrunkBounds, all_shrinkable_loops, shrinkable_bounds
from .evalexpr import ValueReader, coerce_store, eval_expr, eval_subscripts
from .seq import (
    GlobalStore,
    SequentialInterpreter,
    run_sequential,
    seeded_inputs,
)
from .spmd import SPMDPrinter, print_spmd
from .walker import ExecutionHooks, StopExecution, Walker

__all__ = [
    "ShrunkBounds",
    "all_shrinkable_loops",
    "shrinkable_bounds",
    "SPMDPrinter",
    "print_spmd",
    "ValueReader",
    "coerce_store",
    "eval_expr",
    "eval_subscripts",
    "GlobalStore",
    "SequentialInterpreter",
    "run_sequential",
    "seeded_inputs",
    "ExecutionHooks",
    "StopExecution",
    "Walker",
]
