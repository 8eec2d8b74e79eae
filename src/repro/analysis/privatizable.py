"""Privatizability analysis.

Paper Fig. 3's ``IsPrivatizable(def)``: a scalar definition is
privatizable (with respect to its innermost enclosing loop) when

* every use the definition reaches lies inside that loop,
* the value never crosses an iteration boundary (no flow through the
  loop-header phi), and
* the value is not live at the loop exit.

All three conditions fall out of the SSA chains: a value that escapes
an iteration or the loop necessarily flows through the phi at the loop
header (the header node is the loop's only join point for both the back
edge and the exit edge in our CFG shape).

The ``NEW`` clause of an INDEPENDENT directive asserts privatizability
for the named variables with respect to that loop (HPF semantics), and
the paper's compiler "takes advantage of the NEW clause ... to infer
this"; we honor it identically. For *arrays*, phpf "currently relies on
directives from the programmer to infer that arrays are privatizable" —
so array privatizability comes only from NEW clauses, with a legality
lint on top.
"""

from __future__ import annotations

from ..ir.cfg import CFG
from ..ir.expr import ArrayElemRef
from ..ir.program import Procedure
from ..ir.stmt import AssignStmt, LoopStmt
from ..ir.symbols import Symbol
from .dataflow import LivenessInfo
from .ssa import SSADef, SSAInfo


class PrivatizabilityInfo:
    """Per-definition scalar privatizability plus per-loop array
    privatizability queries."""

    def __init__(self, proc: Procedure, cfg: CFG, ssa: SSAInfo, liveness: LivenessInfo):
        self.proc = proc
        self.cfg = cfg
        self.ssa = ssa
        self.liveness = liveness

    # -- scalars ---------------------------------------------------------------

    def is_privatizable(self, d: SSADef, loop: LoopStmt | None = None) -> bool:
        """``IsPrivatizable(def)`` of paper Fig. 3, with respect to
        ``loop`` (default: the innermost loop enclosing the def)."""
        if not d.is_real or d.stmt is None:
            return False
        if loop is None:
            loop = d.stmt.loop
        if loop is None:
            return False  # not inside any loop: nothing to privatize against
        if not self.proc.encloses(loop, d.stmt):
            return False

        symbol = d.symbol
        # NEW clause assertion for this loop.
        if symbol.name in loop.new_vars:
            return True

        # Every reached use must be inside the loop.
        for use in self.ssa.reached_uses(d):
            use_stmt = self.ssa.stmt_of_use(use)
            if use_stmt is None or not (
                use_stmt is loop or self.proc.encloses(loop, use_stmt)
            ):
                return False
        # The value must not cross an iteration/exit boundary: no flow
        # through the phi at the loop header.
        header = self.cfg.node_of(loop)
        if self.ssa.flows_through_phi_at(d, header):
            return False
        # Not live at loop exit (defensive double-check; the phi test
        # already implies it in this CFG shape).
        if self.liveness.is_live_out_of_loop(symbol.name, loop):
            return False
        return True

    def privatization_level(self, d: SSADef) -> int | None:
        """The *outermost* 1-based loop level at which ``d`` is
        privatizable, or None. (Note the properties at different levels
        are independent: a value may escape the inner loop yet stay
        confined to one outer iteration.)"""
        if d.stmt is None:
            return None
        for loop in d.stmt.loops_enclosing():  # outermost inward
            if self.is_privatizable(d, loop):
                return loop.level
        return None

    def deepest_privatization_level(self, d: SSADef) -> int | None:
        """The *innermost* loop level at which ``d`` is privatizable —
        the ``l`` of the paper's alignment-validity condition
        ``AlignLevel(r) <= l`` (a deeper level admits more alignment
        targets)."""
        if d.stmt is None:
            return None
        for loop in reversed(d.stmt.loops_enclosing()):  # innermost outward
            if self.is_privatizable(d, loop):
                return loop.level
        return None

    # -- arrays -------------------------------------------------------------------

    def array_privatizable_in(self, array: Symbol, loop: LoopStmt) -> bool:
        """Array privatizability, from the loop's NEW clause."""
        return array.name in loop.new_vars

    def array_new_loops(self, array: Symbol) -> list[LoopStmt]:
        """Loops whose NEW clause names ``array``."""
        return [
            loop for loop in self.proc.loops() if array.name in loop.new_vars
        ]

    def array_needs_privatization(self, array: Symbol, loop: LoopStmt) -> bool:
        """Does ``array`` carry memory-based dependences across
        iterations of ``loop`` that only privatization can remove?

        Paper Section 3.1: "Any lhs array reference in which each
        subscript is either invariant with respect to the parallel loop
        or is an affine function of inner loop indices contributes to
        memory-based loop-carried dependences, which can be eliminated
        only by privatizing that array."
        """
        for stmt in loop.walk():
            if not isinstance(stmt, AssignStmt):
                continue
            if not isinstance(stmt.lhs, ArrayElemRef):
                continue
            if stmt.lhs.symbol.name != array.name:
                continue
            all_inner_or_invariant = True
            for form in stmt.lhs.forms:
                if form is None:
                    all_inner_or_invariant = False
                    break
                if form.coeff(loop.var) != 0:
                    all_inner_or_invariant = False
                    break
            if all_inner_or_invariant:
                return True
        return False
