"""Communication and computation cost model (IBM SP2 class).

This module lives at the package top level so that both the compiler
driver (repro.core) and the communication/back-end packages can use it
without import cycles.

The paper's mapping algorithm "is guided by a realistic communication
cost model which takes into account the placement of communication, and
hence, optimizations like message vectorization". This module provides
that model, with α–β (latency/bandwidth) message costs, log-tree
collectives, and a sustained flop rate for the computation side.

Default constants approximate a 1997 IBM SP2 thin node with the
high-performance switch:

* message latency ≈ 40 µs,
* point-to-point bandwidth ≈ 35 MB/s,
* sustained compute ≈ 50 Mflop/s,
* REAL element size 8 bytes.

Absolute numbers are only meant to land in the right ballpark; the
reproduction targets the *shape* of the paper's tables (orderings,
ratios, scaling trends).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class CostFormulas:
    """The α–β + flop-rate pricing formulas, written once.

    Every formula reads the parameter fields (``alpha``, ``beta``,
    ``flop_time``, ``element_bytes``, ``stmt_overhead``) off ``self`` and
    never asks what they hold: floats on a :class:`MachineModel`,
    ``(lanes,)`` vectors on the lane-stacked
    :class:`~repro.machine.batchexec.VectorMachine`.  IEEE-754
    elementwise arithmetic in one operation order makes lane ``m`` of a
    vector answer bitwise the scalar answer of model ``m`` — there is no
    second formula text to keep in step.  Element counts and ``procs``
    are plain Python ints here.
    """

    # -- point-to-point ----------------------------------------------------

    def message_time(self, elements: int) -> float:
        """One point-to-point message of ``elements`` array elements."""
        return self.alpha + self.beta * self.element_bytes * max(elements, 0)

    # -- collectives ----------------------------------------------------------

    @staticmethod
    def _rounds(procs: int) -> int:
        return max(1, math.ceil(math.log2(max(procs, 2))))

    def broadcast_time(self, elements: int, procs: int) -> float:
        """Binomial-tree broadcast to ``procs`` processors."""
        if procs <= 1:
            return 0.0
        return self._rounds(procs) * self.message_time(elements)

    def reduce_time(self, elements: int, procs: int) -> float:
        """Binomial-tree (all)reduce across ``procs`` processors."""
        if procs <= 1:
            return 0.0
        return self._rounds(procs) * self.message_time(elements)

    def shift_time(self, elements: int) -> float:
        """Nearest-neighbour (collective) shift: one exchange."""
        return self.message_time(elements)

    def gather_time(self, elements: int, procs: int) -> float:
        """General/irregular transfer, costed as a two-phase exchange."""
        if procs <= 1:
            return self.message_time(elements)
        return 2 * self._rounds(procs) * self.message_time(elements)

    def alltoall_time(self, elements: int, procs: int) -> float:
        """All-to-all personalized exchange (a global transpose):
        ``elements`` is the *total* redistributed volume; each processor
        sends and receives roughly ``elements / procs``."""
        if procs <= 1:
            return 0.0
        per_proc = max(elements // procs, 1)
        return (procs - 1) * self.alpha + 2 * self.beta * self.element_bytes * per_proc

    # -- pattern dispatch -----------------------------------------------------------

    def transfer_time(
        self,
        pattern,
        elements: int,
        span_procs: int,
    ) -> float:
        """Per-instance time of one classified transfer.

        ``span_procs`` — number of processors the transfer spans
        (broadcast fan-out, or the parallel extent for general
        patterns).
        """
        if pattern.kind == "none":
            return 0.0
        if pattern.kind == "shift":
            return self.shift_time(elements)
        if pattern.kind == "broadcast":
            return self.broadcast_time(elements, span_procs)
        return self.gather_time(elements, span_procs)

    # -- computation -----------------------------------------------------------------

    def compute_time(self, flops: int, instances: int = 1) -> float:
        return instances * (flops * self.flop_time + self.stmt_overhead)


@dataclass(frozen=True)
class MachineModel(CostFormulas):
    """Cost parameters of the simulated distributed-memory machine."""

    name: str = "SP2-like"
    alpha: float = 40e-6  # message startup (s)
    beta: float = 1.0 / 35e6  # per-byte transfer time (s/B)
    flop_time: float = 1.0 / 50e6  # sustained per-flop time (s)
    element_bytes: int = 8
    #: per-statement-instance loop/addressing overhead (s); folded into
    #: compute cost so tiny statements are not free
    stmt_overhead: float = 10e-9

    def __post_init__(self) -> None:
        # every charge the simulator makes is a sum of products of these
        # with counts: finite and non-negative here means no clock ever
        # runs backwards or turns NaN (``Clocks.charge_message_run``
        # folds on that)
        for name in ("alpha", "beta", "flop_time", "stmt_overhead"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0
            ):
                raise ValueError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )
        if (
            isinstance(self.element_bytes, bool)
            or not isinstance(self.element_bytes, numbers.Integral)
            or self.element_bytes < 1
        ):
            raise ValueError(
                f"element_bytes must be an integer >= 1, "
                f"got {self.element_bytes!r}"
            )


#: The default machine used by benchmarks: 1997 SP2 thin nodes.
SP2 = MachineModel()


def flops_of_expr(expr) -> int:
    """Approximate flop count of evaluating an expression."""
    from .ir.expr import BinOp, IntrinsicCall, UnOp

    if isinstance(expr, BinOp):
        base = flops_of_expr(expr.left) + flops_of_expr(expr.right)
        if expr.op in ("+", "-", "*"):
            return base + 1
        if expr.op == "/":
            return base + 4
        if expr.op == "**":
            return base + 10
        return base + 1  # comparisons / logicals
    if isinstance(expr, UnOp):
        return flops_of_expr(expr.operand) + 1
    if isinstance(expr, IntrinsicCall):
        inner = sum(flops_of_expr(a) for a in expr.args)
        heavy = {"SQRT": 12, "EXP": 20, "LOG": 20, "SIN": 20, "COS": 20}
        return inner + heavy.get(expr.name, 1)
    return 0
