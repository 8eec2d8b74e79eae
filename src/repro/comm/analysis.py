"""Communication analysis: extract every transfer a compiled program
needs, with its pattern classification and its *placement level* (how
far out of the loop nest message vectorization can hoist it).

For an assignment ``lhs = rhs`` executed by the owners of ``lhs``:

* every rhs reference (and every lhs subscript reference) whose data
  position differs from the executor position yields a transfer;
* the transfer's placement is bounded by where the transferred value is
  produced — "This communication takes place inside the i-loop, because
  of a dependence from the definition of x to the use of x inside the
  loop" (paper Section 2.1);
* scalar mappings decide positions: replicated / private-no-align data
  is free, aligned data lives with its target.

Privatized control-flow predicates (Section 4) are delivered to the
union of the dependent statements' executors; non-privatized ones to
all processors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.context import AnalysisContext
from ..core.locality import (
    Position,
    all_any,
    classify_transfer,
    comm_free,
    position_of_array_ref,
)
from ..core.mapping_kinds import ControlFlowDecision, ReductionMapping
from ..ir.expr import ArrayElemRef, Ref, ScalarRef
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt, Stmt
from ..mapping.descriptors import ArrayMapping
from ..partition.owner_computes import ExecutorInfo
from .events import CommEvent, CommReport, ReduceEvent


@dataclass
class CommOptions:
    #: disable to model a placement-blind compiler (every transfer sits
    #: in the innermost loop) — cost-model ablation
    message_vectorization: bool = True


class CommAnalysis:
    def __init__(
        self,
        ctx: AnalysisContext,
        scalar_pass,
        effective_mappings: dict[str, ArrayMapping],
        executors: dict[int, ExecutorInfo],
        cf_decisions: dict[int, ControlFlowDecision],
        options: CommOptions | None = None,
    ):
        self.ctx = ctx
        self.scalar_pass = scalar_pass
        self.mappings = effective_mappings
        self.executors = executors
        self.cf_decisions = cf_decisions
        self.options = options or CommOptions()

    # ------------------------------------------------------------------

    def run(self) -> CommReport:
        report = CommReport()
        for stmt in self.ctx.proc.all_stmts():
            if isinstance(stmt, AssignStmt):
                self._analyze_assign(stmt, report)
            elif isinstance(stmt, IfStmt):
                self._analyze_predicate(stmt, report)
            elif isinstance(stmt, LoopStmt):
                self._analyze_bounds(stmt, report)
        self._collect_reductions(report)
        for ordinal, event in enumerate(report.events):
            event.ordinal = ordinal
        return report

    # ------------------------------------------------------------------

    def _position_of_ref(self, ref: Ref) -> Position:
        if isinstance(ref, ArrayElemRef):
            return position_of_array_ref(ref, self.mappings[ref.symbol.name])
        return self.scalar_pass.position_of_scalar_use(ref)

    def _placement(self, ref: Ref, stmt: Stmt) -> int:
        if not self.options.message_vectorization:
            return stmt.nesting_level
        return self.ctx.comm_blocked_level(ref, stmt)

    def _emit(
        self,
        stmt: Stmt,
        ref: Ref,
        executor_pos: Position,
        report: CommReport,
        note: str = "",
    ) -> None:
        data_pos = self._position_of_ref(ref)
        if comm_free(data_pos, executor_pos):
            return
        pattern = classify_transfer(data_pos, executor_pos)
        report.events.append(
            CommEvent(
                stmt=stmt,
                ref=ref,
                pattern=pattern,
                placement_level=self._placement(ref, stmt),
                data_position=data_pos,
                executor_position=executor_pos,
                note=note,
            )
        )

    def _analyze_assign(self, stmt: AssignStmt, report: CommReport) -> None:
        executor = self.executors[stmt.stmt_id]
        for ref in stmt.rhs.refs():
            self._emit(stmt, ref, executor.position, report)
        if isinstance(stmt.lhs, ArrayElemRef):
            # Subscripts of the lhs decide ownership: every processor
            # evaluates the guard, so partitioned subscript data must be
            # broadcast (this is why lhs-subscript uses get the dummy
            # replicated consumer reference in the mapping algorithm).
            everyone = all_any(self.ctx.grid.rank)
            for sub in stmt.lhs.subscripts:
                for ref in sub.refs():
                    self._emit(stmt, ref, everyone, report, note="lhs subscript")

    def _analyze_predicate(self, stmt: IfStmt, report: CommReport) -> None:
        decision = self.cf_decisions.get(stmt.stmt_id)
        if decision is not None and decision.privatized and not decision.dependent_refs:
            return  # nobody needs the predicate beyond local control
        executor_pos = self._predicate_destination(stmt, decision)
        for ref in stmt.uses():
            self._emit(
                stmt,
                ref,
                executor_pos,
                report,
                note="control predicate",
            )

    def _predicate_destination(
        self, stmt: IfStmt, decision: ControlFlowDecision | None
    ) -> Position:
        """Where the predicate's data must be available: the union of
        the dependent statements' executors when the statement is
        privatized, otherwise all processors."""
        grid_rank = self.ctx.grid.rank
        if decision is None or not decision.privatized:
            return all_any(grid_rank)
        positions = []
        for dep_ref in decision.dependent_refs:
            if isinstance(dep_ref, ArrayElemRef):
                positions.append(
                    position_of_array_ref(dep_ref, self.mappings[dep_ref.symbol.name])
                )
            elif isinstance(dep_ref, ScalarRef):
                def_id = self.ctx.ssa.def_of_lhs.get(dep_ref.ref_id)
                mapping = (
                    self.scalar_pass.decisions.get(def_id) if def_id else None
                )
                positions.append(self.scalar_pass.position_of_mapping(mapping))
        if not positions:
            return all_any(grid_rank)
        return positions_union(positions, grid_rank)

    def _analyze_bounds(self, stmt: LoopStmt, report: CommReport) -> None:
        # Loop bounds are evaluated by every processor reaching the
        # loop; partitioned data in a bound must be broadcast.
        executor_pos = all_any(self.ctx.grid.rank)
        for ref in stmt.uses():
            self._emit(stmt, ref, executor_pos, report, note="loop bound")

    # ------------------------------------------------------------------

    def _collect_reductions(self, report: CommReport) -> None:
        seen: set[int] = set()
        for reduction in self.ctx.reductions:
            update = reduction.update_stmts[0]
            if update.stmt_id in seen:
                continue
            if reduction.is_array_reduction:
                array_reductions = getattr(self.scalar_pass, "array_reductions", {})
                entry = array_reductions.get(update.stmt_id)
                if entry is None:
                    continue
                _, mapping = entry
                seen.add(update.stmt_id)
                report.reduces.append(
                    ReduceEvent(
                        stmt=update,
                        loop_level=reduction.loop.level,
                        grid_dims=mapping.replicated_grid_dims,
                        op=reduction.op,
                        elements=self._array_combine_elements(reduction),
                    )
                )
                continue
            d = self.ctx.ssa.def_of_assignment(update)
            if d is None:
                continue
            mapping = self.scalar_pass.decisions.get(d.def_id)
            if not isinstance(mapping, ReductionMapping):
                continue
            if not mapping.replicated_grid_dims:
                continue  # reduction confined to one processor: no combine
            seen.add(update.stmt_id)
            report.reduces.append(
                ReduceEvent(
                    stmt=update,
                    loop_level=reduction.loop.level,
                    grid_dims=mapping.replicated_grid_dims,
                    op=reduction.op,
                    elements=len(reduction.update_stmts),
                )
            )

    def _array_combine_elements(self, reduction) -> int:
        """Elements combined per instance of an array reduction: the
        extent of each accumulator dimension whose subscript varies in
        a loop nested inside the reduction loop."""
        update = reduction.update_stmts[0]
        inner_vars = {
            l.var.name
            for l in update.loops_enclosing()
            if l.level > reduction.loop.level
        }
        elements = 1
        for dim, form in enumerate(reduction.accumulator.forms):
            if form is None or any(s.name in inner_vars for s in form.symbols):
                elements *= reduction.accumulator.symbol.extent(dim)
        return elements


def hoisted_loop_vars(event: CommEvent, stmt: Stmt) -> tuple[str, ...]:
    """Loop variables that remain *outside* a placed transfer: the
    enclosing loops at or above the event's placement level.  Fetch
    coalescing keys on their runtime values — two iterations that only
    differ in loops the message was hoisted out of share one message."""
    level = event.placement_level
    return tuple(
        loop.var.name for loop in stmt.loops_enclosing() if loop.level <= level
    )


def positions_union(positions: list[Position], grid_rank: int) -> Position:
    """Union of executor sets, dimension-wise: identical positions stay
    exact; differing positions widen to 'any' (conservative)."""
    from ..core.locality import ANY, forms_equal

    if not positions:
        return tuple(ANY for _ in range(grid_rank))
    result: list = []
    for g in range(grid_rank):
        dims = [p[g] for p in positions]
        first = dims[0]
        same = all(
            d.kind == first.kind
            and d.fmt == first.fmt
            and (
                d.form is None
                and first.form is None
                or (d.form is not None and first.form is not None and forms_equal(d.form, first.form))
            )
            for d in dims
        )
        result.append(first if same else ANY)
    return tuple(result)
