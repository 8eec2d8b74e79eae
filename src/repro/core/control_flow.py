"""Privatized execution of control-flow statements (paper Section 4).

"If the statement S cannot transfer control to a target statement
outside the body of loop L, then S does not contribute to a computation
partitioning guard for the loop L. Essentially, S will be executed by
the union of all processors executing any other statement inside loop L
for a given iteration. ... Any data referenced in the control predicate
of S has to be communicated to the union of all processors that
participate in the execution of any statement that is
control-dependent on S."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.expr import Ref
from ..ir.program import Procedure
from ..ir.stmt import (
    AssignStmt,
    GotoStmt,
    IfStmt,
    LoopStmt,
    Stmt,
    StopStmt,
)
from .context import AnalysisContext
from .mapping_kinds import ControlFlowDecision


@dataclass
class ControlFlowOptions:
    privatize_control_flow: bool = True


def _gotos_in(stmts: list[Stmt]):
    for stmt in stmts:
        for s in stmt.walk():
            if isinstance(s, (GotoStmt, StopStmt)):
                yield s


def _branch_escapes_loop(proc: Procedure, stmt: Stmt, loop: LoopStmt) -> bool:
    """Does ``stmt`` (or anything nested in it) transfer control outside
    ``loop``?"""
    bodies: list[Stmt]
    if isinstance(stmt, IfStmt):
        bodies = list(stmt.then_body) + list(stmt.else_body)
    else:
        bodies = [stmt]
    for s in _gotos_in(bodies):
        if isinstance(s, StopStmt):
            return True
        target = proc.stmt_at_label(s.target_label)
        if target is None or not (
            target is loop or proc.encloses(loop, target)
        ):
            return True
    return False


def _dependent_statements(stmt: IfStmt) -> list[Stmt]:
    """Statements control-dependent on the IF: its branch bodies. A
    GOTO inside a branch additionally makes the remainder of the loop
    body dependent, which the caller approximates by including every
    following sibling up to the GOTO's target."""
    deps: list[Stmt] = []
    for s in stmt.then_body + stmt.else_body:
        deps.extend(s.walk())
    return deps


def _goto_skipped_statements(proc: Procedure, stmt: IfStmt, loop: LoopStmt) -> list[Stmt]:
    """Statements that a forward GOTO inside the IF may skip — they are
    control-dependent on the predicate too."""
    skipped: list[Stmt] = []
    for goto in _gotos_in(list(stmt.then_body) + list(stmt.else_body)):
        if isinstance(goto, StopStmt):
            continue
        target = proc.stmt_at_label(goto.target_label)
        if target is None:
            continue
        container = _containing_body(loop, stmt)
        if container is None:
            continue
        started = False
        for sibling in container:
            if sibling is stmt:
                started = True
                continue
            if sibling is target:
                break
            if started:
                skipped.extend(sibling.walk())
    return skipped


def _containing_body(loop: LoopStmt, stmt: Stmt) -> list[Stmt] | None:
    """The statement list of ``loop``'s body that directly contains
    ``stmt`` (searching nested IF bodies as well)."""
    def search(body: list[Stmt]) -> list[Stmt] | None:
        if any(s is stmt for s in body):
            return body
        for s in body:
            if isinstance(s, IfStmt):
                found = search(s.then_body) or search(s.else_body)
                if found is not None:
                    return found
            elif isinstance(s, LoopStmt):
                found = search(s.body)
                if found is not None:
                    return found
        return None

    return search(loop.body)


class ControlFlowPass:
    """Decide privatized execution for every IF/GOTO inside loops."""

    def __init__(self, ctx: AnalysisContext, options: ControlFlowOptions | None = None):
        self.ctx = ctx
        self.options = options or ControlFlowOptions()

    def run(self) -> dict[int, ControlFlowDecision]:
        decisions: dict[int, ControlFlowDecision] = {}
        for stmt in self.ctx.proc.all_stmts():
            if not isinstance(stmt, (IfStmt, GotoStmt)):
                continue
            decisions[stmt.stmt_id] = self._decide(stmt)
        return decisions

    def _decide(self, stmt: Stmt) -> ControlFlowDecision:
        loop = stmt.loop
        if not self.options.privatize_control_flow:
            return ControlFlowDecision(
                stmt=stmt, privatized=False, reason="control-flow privatization disabled"
            )
        if loop is None:
            return ControlFlowDecision(
                stmt=stmt, privatized=False, reason="outside any loop"
            )
        if _branch_escapes_loop(self.ctx.proc, stmt, loop):
            return ControlFlowDecision(
                stmt=stmt,
                privatized=False,
                reason=f"may branch outside loop {loop.var.name}",
            )
        dependents: list[Stmt] = []
        if isinstance(stmt, IfStmt):
            dependents = _dependent_statements(stmt)
            dependents += _goto_skipped_statements(self.ctx.proc, stmt, loop)
        dependent_refs: list[Ref] = []
        for dep in dependents:
            if isinstance(dep, AssignStmt):
                dependent_refs.append(dep.lhs)
        return ControlFlowDecision(
            stmt=stmt,
            privatized=True,
            dependent_refs=dependent_refs,
            reason=f"all targets inside loop {loop.var.name}",
        )


def run_control_flow(
    ctx: AnalysisContext, options: ControlFlowOptions | None = None
) -> dict[int, ControlFlowDecision]:
    return ControlFlowPass(ctx, options).run()
