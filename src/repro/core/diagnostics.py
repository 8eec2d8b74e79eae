"""Compiler diagnostics: human-readable explanations of the mapping
decisions and performance hazards of a compiled program.

These are the messages a production HPF compiler of the era printed
under ``-qreport``: why a scalar stayed replicated, which transfers
could not be vectorized out of their loops, which arrays are silently
replicated for lack of a directive, and what the privatization passes
accomplished.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.expr import ScalarRef
from .consumer import classify_use
from .driver import CompiledProgram
from .mapping_kinds import (
    AlignedTo,
    FullyReplicatedReduction,
    Replicated,
    ReductionMapping,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "info" | "warning"
    code: str
    message: str
    stmt_id: int | None = None

    def __str__(self) -> str:
        where = f" [S{self.stmt_id}]" if self.stmt_id is not None else ""
        return f"{self.severity.upper()} {self.code}{where}: {self.message}"


_REASONS = {
    "loop-bound": "it is used in a loop bound, which every processor evaluates",
    "lhs-subscript": "it subscripts an assignment target, so every processor "
    "needs it to evaluate the ownership guard",
    "if-cond": "it is used in a branch predicate whose dependents span "
    "multiple owners",
    "rhs-subscript": "it subscripts a reference that itself requires "
    "communication",
    "call-arg": "it is passed to an external call",
}


def diagnose(compiled: CompiledProgram) -> list[Diagnostic]:
    """All diagnostics for a compiled program, warnings first."""
    out: list[Diagnostic] = []
    out.extend(_replication_reasons(compiled))
    out.extend(_unmapped_arrays(compiled))
    out.extend(_inner_loop_comm(compiled))
    out.extend(_privatization_failures(compiled))
    out.extend(_veto_notes(compiled))
    out.extend(_transform_notes(compiled))
    out.sort(key=lambda d: (d.severity != "warning", d.code))
    return out


# ----------------------------------------------------------------------


def _replication_reasons(compiled: CompiledProgram):
    """Why did a privatizable scalar stay replicated?"""
    ctx = compiled.ctx
    seen: set[str] = set()
    for stmt in compiled.proc.assignments():
        if not isinstance(stmt.lhs, ScalarRef):
            continue
        mapping = compiled.scalar_mapping_of(stmt.stmt_id)
        if not isinstance(mapping, Replicated):
            continue
        d = ctx.ssa.def_of_assignment(stmt)
        if d is None or ctx.priv.deepest_privatization_level(d) is None:
            continue  # genuinely not privatizable: replication is forced
        name = stmt.lhs.symbol.name
        if name in seen:
            continue
        seen.add(name)
        reason = None
        for use in ctx.ssa.reached_uses(d):
            use_ctx = classify_use(use, ctx.ssa.stmt_of_use(use))
            if use_ctx.role in _REASONS and use_ctx.role != "rhs-value":
                reason = _REASONS[use_ctx.role]
                break
        if reason is None:
            reason = "no partitioned alignment target was valid"
        yield Diagnostic(
            severity="warning",
            code="W-REPL-SCALAR",
            message=(
                f"privatizable scalar {name} stays replicated: {reason}"
            ),
            stmt_id=stmt.stmt_id,
        )


def _unmapped_arrays(compiled: CompiledProgram):
    for name, mapping in sorted(compiled.mappings.items()):
        if not mapping.is_replicated or mapping.privatized_grid_dims:
            continue
        symbol = mapping.array
        declared = compiled.proc.distribute_of(symbol) or compiled.proc.align_of(
            symbol
        )
        if declared is not None:
            continue  # explicitly replicated via '*' alignment: intended
        bytes_total = symbol.size() * compiled.options.machine.element_bytes
        yield Diagnostic(
            severity="warning",
            code="W-REPL-ARRAY",
            message=(
                f"array {name} has no DISTRIBUTE/ALIGN directive and is "
                f"replicated on every processor "
                f"({bytes_total / 1024:.1f} KiB each)"
            ),
        )


def _inner_loop_comm(compiled: CompiledProgram):
    for event in compiled.comm.inner_loop_events():
        yield Diagnostic(
            severity="warning",
            code="W-INNER-COMM",
            message=(
                f"transfer of {event.ref} cannot be vectorized out of the "
                f"innermost loop (the value is produced inside it); pattern "
                f"{event.pattern}"
            ),
            stmt_id=event.stmt.stmt_id,
        )


def _privatization_failures(compiled: CompiledProgram):
    for name, loop, reason in compiled.array_result.failures:
        yield Diagnostic(
            severity="warning",
            code="W-PRIV-FAIL",
            message=(
                f"array {name} could not be privatized w.r.t. loop "
                f"{loop.var.name}: {reason}"
            ),
            stmt_id=loop.stmt_id,
        )


def _veto_notes(compiled: CompiledProgram):
    for stmt in compiled.proc.assignments():
        if not isinstance(stmt.lhs, ScalarRef):
            continue
        mapping = compiled.scalar_mapping_of(stmt.stmt_id)
        if isinstance(mapping, AlignedTo) and not mapping.is_consumer:
            yield Diagnostic(
                severity="info",
                code="I-PRODUCER",
                message=(
                    f"scalar {stmt.lhs.symbol.name} aligned with producer "
                    f"{mapping.target} (consumer alignment would force "
                    f"inner-loop communication)"
                ),
                stmt_id=stmt.stmt_id,
            )


def _transform_notes(compiled: CompiledProgram):
    for iv in compiled.ctx.inductions:
        yield Diagnostic(
            severity="info",
            code="I-INDUCTION",
            message=(
                f"induction variable {iv.symbol.name} replaced by its closed "
                f"form {iv.closed_form} and privatized without alignment"
            ),
            stmt_id=iv.update_stmt.stmt_id,
        )
    seen: set[int] = set()
    for stmt in compiled.proc.assignments():
        mapping = compiled.scalar_mapping_of(stmt.stmt_id)
        if isinstance(mapping, (ReductionMapping, FullyReplicatedReduction)):
            if isinstance(stmt.lhs, ScalarRef) and id(stmt.lhs.symbol) not in seen:
                seen.add(id(stmt.lhs.symbol))
                yield Diagnostic(
                    severity="info",
                    code="I-REDUCTION",
                    message=(
                        f"scalar {stmt.lhs.symbol.name} recognized as a "
                        f"{mapping.op} reduction: {mapping}"
                    ),
                    stmt_id=stmt.stmt_id,
                )
    for priv in compiled.array_result.privatizations:
        yield Diagnostic(
            severity="info",
            code="I-ARRAY-PRIV",
            message=str(priv),
            stmt_id=priv.loop.stmt_id,
        )


def render_diagnostics(diagnostics: list[Diagnostic]) -> str:
    if not diagnostics:
        return "no diagnostics"
    return "\n".join(str(d) for d in diagnostics)
