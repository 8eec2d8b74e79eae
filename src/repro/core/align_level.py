"""VarLevel / SubscriptAlignLevel / AlignLevel (paper Section 2.2,
Figure 4).

* ``VarLevel(s)`` — the innermost loop nesting level in which subscript
  ``s`` varies in value (0 if invariant over the whole nest).
* ``SubscriptAlignLevel(s)`` — ``VarLevel(s)`` when ``s`` is an affine
  function of loop indices, ``VarLevel(s) + 1`` otherwise: the nesting
  level of the outermost loop throughout which the subscript's value is
  well defined.
* ``AlignLevel(r)`` — the maximum SubscriptAlignLevel over the
  subscripts appearing in *partitioned* dimensions of ``r`` (partial
  privatization restricts the dimensions considered — paper Sec. 3.2).

A reference ``r`` can serve as alignment target for a definition
privatizable at nesting level ``l`` iff ``AlignLevel(r) <= l``.
"""

from __future__ import annotations

from ..ir.expr import ArrayElemRef, Expr, ScalarRef
from ..ir.program import Procedure
from ..ir.stmt import LoopStmt, Stmt
from ..mapping.descriptors import ArrayMapping
from ..analysis.ssa import SSAInfo


def _level_of_loop_var(name: str, enclosing: list[LoopStmt]) -> int:
    """Nesting level of the enclosing loop whose index is ``name``; 0
    when no enclosing loop uses that index (the value is then fixed
    throughout the nest)."""
    for loop in enclosing:
        if loop.var.name == name:
            return loop.level
    return 0


def var_level(expr: Expr, stmt: Stmt, proc: Procedure, ssa: SSAInfo) -> int:
    """Innermost loop level (w.r.t. the nest enclosing ``stmt``) in
    which ``expr`` varies in value."""
    enclosing = stmt.loops_enclosing()
    level = 0
    for ref in expr.refs():
        if isinstance(ref, ArrayElemRef):
            # An array element in a subscript: varies wherever its own
            # subscripts vary, and wherever the array is (re)defined.
            level = max(level, var_level_of_array_ref(ref, stmt, proc))
            continue
        assert isinstance(ref, ScalarRef)
        symbol = ref.symbol
        if symbol.is_loop_var:
            level = max(level, _level_of_loop_var(symbol.name, enclosing))
            continue
        if symbol.value is not None:  # PARAMETER
            continue
        # Non-index scalar: it varies in the innermost common loop of
        # the statement and any definition that reaches this use —
        # re-execution of the def inside a shared loop changes the value
        # per iteration of that loop.
        for d in ssa.reaching_real_defs(ref):
            if d.stmt is None:
                continue
            common = proc.common_loops(d.stmt, stmt)
            if common:
                level = max(level, common[-1].level)
    return level


def var_level_of_array_ref(ref: ArrayElemRef, stmt: Stmt, proc: Procedure) -> int:
    """Conservative VarLevel of an array element used inside a
    subscript: the deepest enclosing loop of the statement (we do not
    track element-wise array dataflow)."""
    return stmt.nesting_level


def subscript_align_level(
    ref: ArrayElemRef, dim: int, stmt: Stmt, proc: Procedure, ssa: SSAInfo
) -> int:
    """SubscriptAlignLevel per the paper's definition, of the
    ``dim``-th subscript of ``ref``."""
    vl = var_level(ref.subscripts[dim], stmt, proc, ssa)
    form = ref.forms[dim]
    if form is not None and _affine_in_enclosing_indices(form, stmt):
        return vl
    return vl + 1


def _affine_in_enclosing_indices(form, stmt: Stmt) -> bool:
    """All symbols of the affine form are indices of loops enclosing the
    statement (or PARAMETER constants, already folded)."""
    enclosing_names = {l.var.name for l in stmt.loops_enclosing()}
    return all(s.name in enclosing_names for s in form.symbols)


def align_level(
    ref: ArrayElemRef,
    proc: Procedure,
    ssa: SSAInfo,
    mapping: ArrayMapping,
    restrict_grid_dims: tuple[int, ...] | None = None,
) -> int:
    """AlignLevel of an array reference.

    ``restrict_grid_dims`` implements partial privatization's modified
    rule: only subscripts in array dimensions distributed on the listed
    grid dimensions are considered.
    """
    stmt = proc.stmt_of_ref(ref)
    level = 0
    for g, role in enumerate(mapping.roles):
        if role.kind != "dist":
            continue
        if restrict_grid_dims is not None and g not in restrict_grid_dims:
            continue
        level = max(
            level, subscript_align_level(ref, role.array_dim, stmt, proc, ssa)
        )
    return level


def alignment_valid(
    ref: ArrayElemRef,
    privatization_level: int,
    proc: Procedure,
    ssa: SSAInfo,
    mapping: ArrayMapping,
    restrict_grid_dims: tuple[int, ...] | None = None,
) -> bool:
    """Paper: "the scalar definition which is privatizable at nesting
    level l can be aligned unambiguously with the selected reference r
    if AlignLevel(r) <= l"."""
    return (
        align_level(ref, proc, ssa, mapping, restrict_grid_dims)
        <= privatization_level
    )
