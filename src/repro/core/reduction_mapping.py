"""Mapping of scalars involved in reductions (paper Section 2.3,
Figure 5).

"Given a statement assigning value to a scalar variable which is
recognized as a reduction, the compiler checks if the scalar definition
is privatizable without copy-out with respect to the loop immediately
surrounding the reduction loop. If so, the special array reference
whose ownership governs the partitioning of the partial reduction
operation serves as the alignment target. ... the compiler constructs a
new alignment mapping in which the scalar variable is replicated in
each dimension over which reduction takes place, and is aligned with
the target array reference in only the remaining grid dimensions."

Grid dimensions "over which reduction takes place" are those whose
distributed array dimension is traversed *inside* the reduction loop
(subscript VarLevel ≥ reduction loop level). In Fig. 5 with
``A(i, j)`` and a ``j``-loop reduction under ``(BLOCK, BLOCK)``, the
second grid dimension is the reduction dimension, so ``s`` is aligned
with row ``A(i, ·)`` in the first grid dimension and replicated in the
second — "the reduction computation can proceed without the need to
broadcast the ith row of A".

In DGEFA's partial pivoting (``(*, CYCLIC)`` columns), the maxloc runs
down a single column: *no* grid dimension is traversed, so the pivot
scalars are aligned with the column's owner and replicated nowhere —
the pivot search is "confined to just the relevant processor".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.reductions import Reduction
from ..analysis.ssa import SSADef
from ..ir.expr import ArrayElemRef
from ..ir.stmt import AssignStmt
from .align_level import align_level, var_level
from .mapping_kinds import (
    FullyReplicatedReduction,
    ReductionMapping,
    ScalarMapping,
)

if TYPE_CHECKING:  # pragma: no cover
    from .scalar_mapping import ScalarMappingPass


def reduction_grid_dims(
    pass_: "ScalarMappingPass", target: ArrayElemRef, reduction: Reduction
) -> tuple[int, ...]:
    """Grid dimensions spanned by the reduction for a given target
    reference."""
    ctx = pass_.ctx
    mapping = pass_.array_mapping(target)
    stmt = ctx.proc.stmt_of_ref(target)
    dims: list[int] = []
    for g, role in enumerate(mapping.roles):
        if role.kind != "dist":
            continue
        sub = target.subscripts[role.array_dim]
        if var_level(sub, stmt, ctx.proc, ctx.ssa) >= reduction.loop.level:
            dims.append(g)
    return tuple(dims)


def _select_target(
    pass_: "ScalarMappingPass", reduction: Reduction
) -> ArrayElemRef | None:
    """The partial-reduction target: a partitioned array reference from
    the reduction computation."""
    best: ArrayElemRef | None = None
    best_score = -1
    for ref in reduction.candidate_refs:
        mapping = pass_.ctx.array_mappings.get(ref.symbol.name)
        if mapping is None or mapping.is_replicated:
            continue
        # Prefer targets with more partitioned dims traversed outside
        # the reduction (more alignment information preserved).
        score = sum(1 for r in mapping.roles if r.kind == "dist")
        if score > best_score:
            best, best_score = ref, score
    return best


def map_reduction(
    pass_: "ScalarMappingPass",
    d: SSADef,
    stmt: AssignStmt,
    reduction: Reduction,
) -> ScalarMapping:
    """Mapping decision for a reduction-update definition."""
    if not pass_.options.align_reductions:
        return FullyReplicatedReduction(op=reduction.op)

    ctx = pass_.ctx
    outer = reduction.loop.loop  # loop immediately surrounding the reduction
    outer_level = outer.level if outer is not None else 0

    # Privatizable without copy-out w.r.t. the surrounding loop: every
    # use of the result stays within it.
    if outer is not None and not ctx.priv.is_privatizable(d, outer):
        return FullyReplicatedReduction(op=reduction.op)
    if outer is None and not _result_confined_to_program(pass_, d):
        return FullyReplicatedReduction(op=reduction.op)

    target = _select_target(pass_, reduction)
    if target is None:
        return FullyReplicatedReduction(op=reduction.op)

    red_dims = reduction_grid_dims(pass_, target, reduction)
    non_red_dims = tuple(
        g for g in range(ctx.grid.rank) if g not in red_dims
    )
    # Alignment validity in the non-reduction dimensions only.
    level = align_level(
        target,
        ctx.proc,
        ctx.ssa,
        pass_.array_mapping(target),
        restrict_grid_dims=non_red_dims,
    )
    if level > outer_level:
        return FullyReplicatedReduction(op=reduction.op)
    return ReductionMapping(
        target=target,
        replicated_grid_dims=red_dims,
        align_level=level,
        op=reduction.op,
    )


def _result_confined_to_program(pass_: "ScalarMappingPass", d: SSADef) -> bool:
    """For a top-level reduction loop (no surrounding loop) the mapping
    is always expressible; treat the result as confined."""
    return True


def map_array_reduction(
    pass_: "ScalarMappingPass", reduction: Reduction
) -> ReductionMapping | None:
    """Mapping treatment for an *array-valued* reduction (paper Sec.
    3.1): the accumulating statement executes on the owners of the
    partial-reduction target, each processor accumulating its local
    partial results into its copy of the accumulator, with a combine
    across the reduction grid dimensions at the loop's exit.

    Applicable only when the accumulator's own mapping is replicated
    (or privatized) along every grid dimension the reduction spans —
    each participant must hold a private copy to accumulate into.
    """
    ctx = pass_.ctx
    target = _select_target(pass_, reduction)
    if target is None:
        return None
    # Reduction dimensions: traversed inside the reduction loop, but
    # NOT by the accumulator's own indices (those enumerate elements,
    # they are not reduced over).
    acc_vars: set[str] = set()
    for form in reduction.accumulator.forms:
        if form is not None:
            acc_vars.update(s.name for s in form.symbols)
    target_mapping = pass_.array_mapping(target)
    red_dims = tuple(
        g
        for g in reduction_grid_dims(pass_, target, reduction)
        if not _dim_driven_by(target, target_mapping, g, acc_vars)
    )
    if not red_dims:
        return None  # already confined: ordinary owner-computes suffices
    acc_mapping = ctx.array_mappings.get(reduction.symbol.name)
    if acc_mapping is None:
        return None
    for g in red_dims:
        if acc_mapping.roles[g].kind == "dist":
            return None  # accumulator partitioned across the reduction
    return ReductionMapping(
        target=target,
        replicated_grid_dims=red_dims,
        align_level=0,
        op=reduction.op,
    )


def _dim_driven_by(target, target_mapping, grid_dim: int, var_names: set[str]) -> bool:
    """Is the target's subscript on ``grid_dim`` a function of any of
    ``var_names``?"""
    role = target_mapping.roles[grid_dim]
    if role.kind != "dist":
        return False
    form = target.forms[role.array_dim]
    if form is None:
        return False
    return any(s.name in var_names for s in form.symbols)
