"""Computation partitioning under the owner-computes rule.

Every executable statement gets an :class:`ExecutorInfo` describing the
set of processors that execute it:

* ``owner`` — the owners of the lhs reference (or of the scalar
  mapping's alignment target),
* ``all``   — replicated execution: every processor runs the statement
  (the costly default the paper's privatization avoids),
* ``union`` — no computation-partitioning guard: the statement is
  executed by the union of processors executing any other statement of
  the same loop iteration (privatization without alignment, privatized
  control flow).

The grid-dimension-wise :class:`~repro.core.locality.Position` encodes
the executor set symbolically for the communication analysis and the
performance estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.context import AnalysisContext
from ..core.locality import Position, all_any, position_of_array_ref
from ..core.mapping_kinds import (
    AlignedTo,
    ControlFlowDecision,
    FullyReplicatedReduction,
    PrivateNoAlign,
    Replicated,
    ReductionMapping,
    ScalarMapping,
)
from ..errors import PartitionError
from ..ir.expr import ArrayElemRef, Ref
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
from ..mapping.descriptors import ArrayMapping


@dataclass
class ExecutorInfo:
    stmt: Stmt
    kind: str  # "owner" | "all" | "union"
    position: Position
    guard_ref: Ref | None = None
    #: grid dims along which the executor follows the iteration's other
    #: statements (privatized/union execution) rather than an owner set
    union_dims: tuple[int, ...] = ()

    @property
    def no_guard(self) -> bool:
        return self.kind == "union"

    def __str__(self) -> str:
        if self.kind == "owner":
            return f"ON_OWNER({self.guard_ref})"
        return self.kind.upper()


class PartitionPass:
    """Computes :class:`ExecutorInfo` for every statement."""

    def __init__(
        self,
        ctx: AnalysisContext,
        scalar_pass,
        effective_mappings: dict[str, ArrayMapping],
        cf_decisions: dict[int, ControlFlowDecision],
        privatizations: list | None = None,
    ):
        self.ctx = ctx
        self.scalar_pass = scalar_pass
        self.mappings = effective_mappings
        self.cf_decisions = cf_decisions
        #: array name -> ArrayPrivatization (for union-dim refinement)
        self.privatizations = {
            p.array.name: p for p in (privatizations or [])
        }

    def run(self) -> dict[int, ExecutorInfo]:
        result: dict[int, ExecutorInfo] = {}
        for stmt in self.ctx.proc.all_stmts():
            result[stmt.stmt_id] = self._executor(stmt)
        return result

    # ------------------------------------------------------------------

    def _position_of_array_lhs(self, ref: ArrayElemRef) -> tuple[Position, tuple[int, ...]]:
        mapping = self.mappings[ref.symbol.name]
        position = position_of_array_ref(ref, mapping)
        union_dims = mapping.privatized_grid_dims
        if union_dims:
            # A write to a privatized array executes, along the
            # privatized grid dims, on the union of the iteration's
            # executors — which is exactly where the privatization's
            # alignment target lives (the consumers of the array's
            # values). Substitute the target's position there so
            # communication analysis sees the true executor set.
            priv = self.privatizations.get(ref.symbol.name)
            if priv is not None and priv.target is not None:
                target_mapping = self.mappings[priv.target.symbol.name]
                target_pos = position_of_array_ref(priv.target, target_mapping)
                position = tuple(
                    target_pos[g] if g in union_dims else p
                    for g, p in enumerate(position)
                )
        return position, union_dims

    def _executor(self, stmt: Stmt) -> ExecutorInfo:
        grid_rank = self.ctx.grid.rank
        if isinstance(stmt, AssignStmt):
            # Array-valued reduction updates execute on the owners of
            # the partial-reduction target (paper Section 3.1): each
            # processor accumulates into its private copy, combined at
            # loop exit.
            array_reductions = getattr(self.scalar_pass, "array_reductions", {})
            if stmt.stmt_id in array_reductions:
                _, mapping = array_reductions[stmt.stmt_id]
                target_mapping = self.mappings[mapping.target.symbol.name]
                return ExecutorInfo(
                    stmt=stmt,
                    kind="owner",
                    position=position_of_array_ref(mapping.target, target_mapping),
                    guard_ref=mapping.target,
                )
            if isinstance(stmt.lhs, ArrayElemRef):
                position, union_dims = self._position_of_array_lhs(stmt.lhs)
                kind = "owner"
                if union_dims and all(
                    p.kind == "any" for p in position
                ):
                    kind = "union"
                return ExecutorInfo(
                    stmt=stmt,
                    kind=kind,
                    position=position,
                    guard_ref=stmt.lhs,
                    union_dims=union_dims,
                )
            return self._scalar_executor(stmt)
        if isinstance(stmt, (IfStmt, GotoStmt)):
            decision = self.cf_decisions.get(stmt.stmt_id)
            if decision is not None and decision.privatized:
                return ExecutorInfo(
                    stmt=stmt,
                    kind="union",
                    position=all_any(grid_rank),
                    union_dims=tuple(range(grid_rank)),
                )
            return ExecutorInfo(stmt=stmt, kind="all", position=all_any(grid_rank))
        if isinstance(stmt, (LoopStmt, ContinueStmt, StopStmt, CallStmt)):
            # Loop headers (bounds/trip management) run everywhere; they
            # carry no owned data.
            return ExecutorInfo(stmt=stmt, kind="all", position=all_any(grid_rank))
        raise PartitionError(f"no executor rule for {stmt!r}")

    def _scalar_executor(self, stmt: AssignStmt) -> ExecutorInfo:
        grid_rank = self.ctx.grid.rank
        def_id = self.ctx.ssa.def_of_lhs.get(stmt.lhs.ref_id)
        mapping: ScalarMapping | None = (
            self.scalar_pass.decisions.get(def_id) if def_id is not None else None
        )
        if mapping is None or isinstance(
            mapping, (Replicated, FullyReplicatedReduction)
        ):
            return ExecutorInfo(
                stmt=stmt, kind="all", position=all_any(grid_rank), guard_ref=stmt.lhs
            )
        if isinstance(mapping, PrivateNoAlign):
            return ExecutorInfo(
                stmt=stmt,
                kind="union",
                position=all_any(grid_rank),
                guard_ref=stmt.lhs,
                union_dims=tuple(range(grid_rank)),
            )
        if isinstance(mapping, AlignedTo):
            target_mapping = self.mappings[mapping.target.symbol.name]
            return ExecutorInfo(
                stmt=stmt,
                kind="owner",
                position=position_of_array_ref(mapping.target, target_mapping),
                guard_ref=mapping.target,
            )
        if isinstance(mapping, ReductionMapping):
            target_mapping = self.mappings[mapping.target.symbol.name]
            base = position_of_array_ref(mapping.target, target_mapping)
            # Along the reduction dimensions every processor accumulates
            # its local partial result: owner-of-element execution.
            return ExecutorInfo(
                stmt=stmt,
                kind="owner",
                position=base,
                guard_ref=mapping.target,
            )
        raise PartitionError(f"unknown scalar mapping {mapping!r}")


def run_partitioning(
    ctx: AnalysisContext,
    scalar_pass,
    effective_mappings: dict[str, ArrayMapping],
    cf_decisions: dict[int, ControlFlowDecision],
    privatizations: list | None = None,
) -> dict[int, ExecutorInfo]:
    return PartitionPass(
        ctx, scalar_pass, effective_mappings, cf_decisions, privatizations
    ).run()
