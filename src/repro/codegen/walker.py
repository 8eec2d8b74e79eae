"""Structured execution walker shared by the sequential reference
interpreter and the SPMD machine simulator.

Walks the IR statement tree with Fortran semantics: DO loops with
precomputed trip counts, block IFs, one-entry labels, forward/backward
GOTOs resolved within the enclosing statement lists (sufficient for the
F77 idioms the benchmarks use, e.g. ``GO TO 100`` to a labelled
``CONTINUE`` inside the same loop body).

Execution behaviour is delegated to a :class:`ExecutionHooks` object,
so the same control-flow engine drives both back ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InterpreterError
from ..ir.program import Procedure
from ..ir.stmt import (
    AssignStmt,
    CallStmt,
    ContinueStmt,
    GotoStmt,
    IfStmt,
    LoopStmt,
    Stmt,
    StopStmt,
)


class StopExecution(Exception):
    """Raised by STOP."""


class ExecutionHooks:
    """Override points for back ends."""

    def assign(self, stmt: AssignStmt, env: dict[str, int]) -> None:
        raise NotImplementedError

    def eval_condition(self, stmt: IfStmt, env: dict[str, int]) -> bool:
        raise NotImplementedError

    def eval_bound(self, expr, env: dict[str, int]) -> int:
        raise NotImplementedError

    def loop_enter(self, stmt: LoopStmt, env: dict[str, int]) -> None:
        pass

    def loop_exit(self, stmt: LoopStmt, env: dict[str, int]) -> None:
        pass

    def run_loop(
        self,
        stmt: LoopStmt,
        low: int,
        high: int,
        step: int,
        env: dict[str, int],
    ) -> bool:
        """Whole-loop takeover point: return True after executing every
        iteration of the loop (bounds already evaluated), and the walker
        skips its per-iteration while loop.  ``loop_enter`` has fired;
        ``loop_exit`` and the Fortran index-variable epilogue still run.
        The default executes nothing and declines."""
        return False

    def call(self, stmt: CallStmt, env: dict[str, int]) -> None:
        raise InterpreterError(f"CALL {stmt.name} is not supported")


@dataclass
class WalkStats:
    statements_executed: int = 0
    loop_iterations: int = 0
    max_steps: int = 500_000_000

    def bump(self) -> None:
        self.statements_executed += 1
        if self.statements_executed > self.max_steps:
            raise InterpreterError("execution step limit exceeded")


class Walker:
    def __init__(self, proc: Procedure, hooks: ExecutionHooks):
        self.proc = proc
        self.hooks = hooks
        self.env: dict[str, int] = {}
        self.stats = WalkStats()
        #: id(statement list) -> label -> index, so GOTO resolution does
        #: not rescan the list on every jump (DGEFA's pivot loop); the
        #: lists stay alive through ``proc``, keeping the ids stable.
        self._label_maps: dict[int, dict[int, int]] = {}

    def run(self) -> WalkStats:
        try:
            jump = self._exec_block(self.proc.body)
            if jump is not None:
                raise InterpreterError(f"GOTO {jump} escaped the program body")
        except StopExecution:
            pass
        return self.stats

    # ------------------------------------------------------------------

    def _exec_block(self, stmts: list[Stmt]) -> int | None:
        """Execute a statement list; returns a label when a GOTO targets
        a statement outside this list (the jump propagates upward)."""
        i = 0
        while i < len(stmts):
            jump = self._exec_stmt(stmts[i])
            if jump is not None:
                target = self._labels_of(stmts).get(jump)
                if target is None:
                    return jump
                i = target
                continue
            i += 1
        return None

    def _labels_of(self, stmts: list[Stmt]) -> dict[int, int]:
        table = self._label_maps.get(id(stmts))
        if table is None:
            table = {}
            for k, stmt in enumerate(stmts):
                if stmt.label is not None and stmt.label not in table:
                    table[stmt.label] = k
            self._label_maps[id(stmts)] = table
        return table

    def _exec_stmt(self, stmt: Stmt) -> int | None:
        self.stats.bump()
        if isinstance(stmt, AssignStmt):
            self.hooks.assign(stmt, self.env)
            return None
        if isinstance(stmt, LoopStmt):
            return self._exec_loop(stmt)
        if isinstance(stmt, IfStmt):
            if self.hooks.eval_condition(stmt, self.env):
                return self._exec_block(stmt.then_body)
            return self._exec_block(stmt.else_body)
        if isinstance(stmt, GotoStmt):
            return stmt.target_label
        if isinstance(stmt, ContinueStmt):
            return None
        if isinstance(stmt, StopStmt):
            raise StopExecution()
        if isinstance(stmt, CallStmt):
            self.hooks.call(stmt, self.env)
            return None
        raise InterpreterError(f"cannot execute {stmt!r}")

    def _exec_loop(self, stmt: LoopStmt) -> int | None:
        low = self.hooks.eval_bound(stmt.low, self.env)
        high = self.hooks.eval_bound(stmt.high, self.env)
        step = (
            self.hooks.eval_bound(stmt.step, self.env)
            if stmt.step is not None
            else 1
        )
        if step == 0:
            raise InterpreterError(f"zero step in loop {stmt.var.name}")
        self.hooks.loop_enter(stmt, self.env)
        index = low
        saved = self.env.get(stmt.var.name)
        try:
            if self.hooks.run_loop(stmt, low, high, step, self.env):
                trips = max(0, (high - low + step) // step)
                self.stats.loop_iterations += trips
                index = low + trips * step
                return None
            while (step > 0 and index <= high) or (step < 0 and index >= high):
                self.env[stmt.var.name] = index
                self.stats.loop_iterations += 1
                jump = self._exec_block(stmt.body)
                if jump is not None:
                    # A label outside the body terminates the loop and
                    # propagates; (F77 'GOTO <end label>' is inside).
                    return jump
                index += step
        finally:
            if saved is not None:
                self.env[stmt.var.name] = saved
            else:
                # Fortran leaves the index at its final value; keep it
                # visible for post-loop uses.
                self.env[stmt.var.name] = index
            self.hooks.loop_exit(stmt, self.env)
        return None
