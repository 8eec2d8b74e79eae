"""IR statements.

The IR keeps the structured loop-nest form of the program (the paper's
algorithms are loop-structured), while :mod:`repro.ir.cfg` derives a
flat control-flow graph from it for the SSA and dataflow passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .expr import AffineForm, ArrayElemRef, Expr, Ref, ScalarRef
from .symbols import Symbol

_stmt_counter = itertools.count(1)


def _next_stmt_id() -> int:
    return next(_stmt_counter)


@dataclass(eq=False)
class Stmt:
    """Base class of IR statements."""

    stmt_id: int = field(default_factory=_next_stmt_id, kw_only=True)
    label: int | None = field(default=None, kw_only=True)
    line: int = field(default=0, kw_only=True)
    #: Immediately enclosing loop; None at procedure top level. Set by
    #: Procedure.finalize().
    loop: "LoopStmt | None" = field(default=None, kw_only=True, repr=False, compare=False)

    # -- structure helpers ---------------------------------------------------

    def children(self) -> list["Stmt"]:
        return []

    def walk(self):
        """This statement and all nested statements, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def loops_enclosing(self) -> list["LoopStmt"]:
        """Enclosing loops, outermost first."""
        chain: list[LoopStmt] = []
        loop = self.loop
        while loop is not None:
            chain.append(loop)
            loop = loop.loop
        chain.reverse()
        return chain

    @property
    def nesting_level(self) -> int:
        """Number of enclosing loops (0 = top level)."""
        return len(self.loops_enclosing())

    def uses(self):
        """Yield every Ref read by this statement."""
        return iter(())

    def defs(self):
        """Yield every Ref written by this statement."""
        return iter(())


@dataclass(eq=False)
class AssignStmt(Stmt):
    """``lhs = rhs``. ``lhs`` is a ScalarRef or ArrayElemRef."""

    lhs: Ref = None
    rhs: Expr = None
    #: ``flops_of_expr(rhs)``; set by Procedure.finalize().
    flops: int | None = field(default=None, repr=False)

    def uses(self):
        yield from self.rhs.refs()
        # Subscripts of the lhs are *reads*.
        if isinstance(self.lhs, ArrayElemRef):
            for sub in self.lhs.subscripts:
                yield from sub.refs()

    def defs(self):
        yield self.lhs

    def __str__(self) -> str:
        return f"S{self.stmt_id}: {self.lhs} = {self.rhs}"


@dataclass(eq=False)
class LoopStmt(Stmt):
    """``DO var = low, high [, step]``.

    ``independent`` / ``new_vars`` / ``reduction_vars`` carry the
    INDEPENDENT directive attached to the loop, if any.
    """

    var: Symbol = None
    low: Expr = None
    high: Expr = None
    step: Expr | None = None
    body: list[Stmt] = field(default_factory=list)
    independent: bool = False
    new_vars: tuple[str, ...] = ()
    reduction_vars: tuple[str, ...] = ()
    #: 1-based loop nesting level (outermost loop = 1); set by finalize().
    level: int = 0
    #: :func:`~repro.ir.expr.affine_form` of ``low`` / ``high`` /
    #: ``step`` (None: not affine, or no step); set by finalize().
    low_form: AffineForm | None = field(default=None, repr=False)
    high_form: AffineForm | None = field(default=None, repr=False)
    step_form: AffineForm | None = field(default=None, repr=False)

    def children(self) -> list[Stmt]:
        return list(self.body)

    def uses(self):
        yield from self.low.refs()
        yield from self.high.refs()
        if self.step is not None:
            yield from self.step.refs()

    def defs(self):
        # The loop defines its index variable. A synthetic ScalarRef is
        # materialized once and reused so identity is stable.
        if not hasattr(self, "_index_def"):
            self._index_def = ScalarRef(symbol=self.var, stmt_id=self.stmt_id)
        yield self._index_def

    def __str__(self) -> str:
        head = f"S{self.stmt_id}: DO {self.var.name} = {self.low}, {self.high}"
        if self.step is not None:
            head += f", {self.step}"
        return head


@dataclass(eq=False)
class IfStmt(Stmt):
    cond: Expr = None
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)
    #: ``flops_of_expr(cond)``; set by Procedure.finalize().
    flops: int | None = field(default=None, repr=False)

    def children(self) -> list[Stmt]:
        return list(self.then_body) + list(self.else_body)

    def uses(self):
        yield from self.cond.refs()

    def __str__(self) -> str:
        return f"S{self.stmt_id}: IF ({self.cond})"


@dataclass(eq=False)
class GotoStmt(Stmt):
    target_label: int = 0

    def __str__(self) -> str:
        return f"S{self.stmt_id}: GO TO {self.target_label}"


@dataclass(eq=False)
class ContinueStmt(Stmt):
    def __str__(self) -> str:
        label = f"{self.label} " if self.label is not None else ""
        return f"S{self.stmt_id}: {label}CONTINUE"


@dataclass(eq=False)
class StopStmt(Stmt):
    def __str__(self) -> str:
        return f"S{self.stmt_id}: STOP"


@dataclass(eq=False)
class CallStmt(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)

    def uses(self):
        for arg in self.args:
            yield from arg.refs()

    def __str__(self) -> str:
        return f"S{self.stmt_id}: CALL {self.name}"
