"""SPMD pseudo-code printer.

Renders the compiled program as the node program an HPF compiler would
emit: communication calls hoisted to their placement levels (message
vectorization made visible), owner-computes guards, shrunk loop bounds
where legal, privatized statements without guards, local reduction
accumulation with an explicit combine at the reduction loop's exit.

The output is *pseudo*-Fortran for human inspection and golden tests —
actual execution happens in :mod:`repro.machine` (interpretive, with
the same semantics)."""

from __future__ import annotations

from ..comm.events import CommEvent, ReduceEvent
from ..core.driver import CompiledProgram
from ..core.mapping_kinds import FullyReplicatedReduction, Replicated
from ..ir.expr import ScalarRef
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
from .bounds import all_shrinkable_loops

_INDENT = "  "


class SPMDPrinter:
    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.shrunk = all_shrinkable_loops(compiled)
        #: events grouped by (enclosing loop stmt_id at placement, or 0)
        self._events_at: dict[int, list[CommEvent]] = {}
        self._reduces_at: dict[int, list[ReduceEvent]] = {}
        self._group_events()

    # ------------------------------------------------------------------

    def _placement_anchor(self, stmt: Stmt, level: int) -> int:
        """stmt_id of the loop at nesting ``level`` enclosing ``stmt``
        (its body is where the transfer executes); 0 = before the whole
        program."""
        chain = stmt.loops_enclosing()
        if level <= 0:
            return 0
        if level <= len(chain):
            return chain[level - 1].stmt_id
        return chain[-1].stmt_id if chain else 0

    def _group_events(self) -> None:
        for event in self.compiled.comm.events:
            anchor = self._placement_anchor(event.stmt, event.placement_level)
            self._events_at.setdefault(anchor, []).append(event)
        for reduce_event in self.compiled.comm.reduces:
            # Combine runs at the exit of the reduction loop.
            anchor = self._placement_anchor(
                reduce_event.stmt, reduce_event.loop_level
            )
            self._reduces_at.setdefault(anchor, []).append(reduce_event)

    # ------------------------------------------------------------------

    def render(self) -> str:
        grid = self.compiled.grid
        lines: list[str] = [
            f"! SPMD node program for {self.compiled.proc.name}",
            f"! processor grid {grid.name}{grid.shape}; this node: ME = "
            + "(" + ", ".join(f"me{d}" for d in range(grid.rank)) + ")",
            f"! strategy: {self.compiled.options.strategy}",
        ]
        self._emit_comm_block(0, 0, lines)
        for stmt in self.compiled.proc.body:
            self._emit_stmt(stmt, 0, lines)
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------

    def _emit_comm_block(self, anchor: int, depth: int, lines: list[str]) -> None:
        pad = _INDENT * depth
        for event in self._events_at.get(anchor, ()):
            lines.append(pad + f"CALL {self._comm_call(event)}")

    def _comm_call(self, event: CommEvent) -> str:
        ref = event.ref
        what = str(ref)
        where = (
            "inner-loop" if event.is_inner_loop else f"vectorized@{event.placement_level}"
        )
        pattern = event.pattern
        if pattern.kind == "shift":
            offs = ",".join(str(o) for o in pattern.offsets)
            return f"SHIFT_EXCHANGE({what}, offset=({offs}))  ! {where}"
        if pattern.kind == "broadcast":
            dims = ",".join(str(d) for d in pattern.bcast_dims)
            return f"BROADCAST({what}, grid_dims=({dims}))  ! {where}"
        return f"GATHER({what})  ! {where}"

    # ------------------------------------------------------------------

    def _emit_stmt(self, stmt: Stmt, depth: int, lines: list[str]) -> None:
        pad = _INDENT * depth
        if isinstance(stmt, LoopStmt):
            self._emit_loop(stmt, depth, lines)
        elif isinstance(stmt, AssignStmt):
            guard = self._guard_comment(stmt)
            lines.append(pad + f"{stmt.lhs} = {stmt.rhs}{guard}")
        elif isinstance(stmt, IfStmt):
            decision = self.compiled.cf_decisions.get(stmt.stmt_id)
            note = ""
            if decision is not None:
                note = "  ! privatized" if decision.privatized else "  ! on all"
            lines.append(pad + f"IF ({stmt.cond}) THEN{note}")
            for child in stmt.then_body:
                self._emit_stmt(child, depth + 1, lines)
            if stmt.else_body:
                lines.append(pad + "ELSE")
                for child in stmt.else_body:
                    self._emit_stmt(child, depth + 1, lines)
            lines.append(pad + "END IF")
        elif isinstance(stmt, GotoStmt):
            lines.append(pad + f"GO TO {stmt.target_label}")
        elif isinstance(stmt, ContinueStmt):
            label = f"{stmt.label} " if stmt.label is not None else ""
            lines.append(pad + f"{label}CONTINUE")
        elif isinstance(stmt, StopStmt):
            lines.append(pad + "STOP")
        elif isinstance(stmt, CallStmt):
            lines.append(pad + f"CALL {stmt.name}(...)")

    def _emit_loop(self, loop: LoopStmt, depth: int, lines: list[str]) -> None:
        pad = _INDENT * depth
        shrunk = self.shrunk.get(loop.stmt_id)
        head = f"DO {loop.var.name} = "
        if shrunk is not None:
            head += (
                f"MAX({loop.low}, MY_LB{shrunk.grid_dim}), "
                f"MIN({loop.high}, MY_UB{shrunk.grid_dim})"
            )
            if loop.step is not None:
                head += f", {loop.step}"
            head += f"  ! {shrunk.describe()}"
        else:
            head += f"{loop.low}, {loop.high}"
            if loop.step is not None:
                head += f", {loop.step}"
        lines.append(pad + head)
        self._emit_comm_block(loop.stmt_id, depth + 1, lines)
        for stmt in loop.body:
            self._emit_stmt(stmt, depth + 1, lines)
        for reduce_event in self._reduces_at.get(loop.stmt_id, ()):
            dims = ",".join(str(d) for d in reduce_event.grid_dims)
            lines.append(
                _INDENT * (depth + 1)
                + f"! at loop exit: CALL ALLREDUCE({reduce_event.op}, "
                f"grid_dims=({dims}))"
            )
        lines.append(pad + "END DO")

    def _guard_comment(self, stmt: AssignStmt) -> str:
        info = self.compiled.executors.get(stmt.stmt_id)
        if info is None:
            return ""
        # Guard folded into shrunk bounds of an enclosing loop?
        for loop in stmt.loops_enclosing():
            if loop.stmt_id in self.shrunk:
                shrunk = self.shrunk[loop.stmt_id]
                hit = info.kind == "owner" and any(
                    d.kind == "pos"
                    and d.form is not None
                    and d.form.coeff(loop.var) != 0
                    for d in info.position
                )
                if hit:
                    return ""  # no guard needed: bounds already local
        if info.kind == "owner":
            return f"  ! guard: IOWN({info.guard_ref})"
        if info.kind == "union":
            return "  ! privatized: no guard"
        if isinstance(stmt.lhs, ScalarRef):
            mapping = self.compiled.scalar_mapping_of(stmt.stmt_id)
            if isinstance(mapping, (Replicated, FullyReplicatedReduction)):
                return "  ! replicated: all processors execute"
        return "  ! on all processors"


def print_spmd(compiled: CompiledProgram) -> str:
    """Render the compiled program as SPMD pseudo-code."""
    return SPMDPrinter(compiled).render()
