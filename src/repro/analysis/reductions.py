"""Reduction recognition.

Paper, Section 2.3: scalars computed by reductions (sum, product,
min/max, maxloc) get special mapping treatment — replicated across the
grid dimensions the reduction spans and aligned with the partial-
reduction target reference in the remaining dimensions.

Recognized idioms:

1. accumulation statements  ``s = s + e`` / ``s = s * e`` /
   ``s = MAX(s, e)`` / ``s = MIN(s, e)``;
2. the conditional maxloc/minloc idiom used by DGEFA's partial
   pivoting::

       IF (ABS(A(k,j)) > t) THEN
         t = ABS(A(k,j))
         l = k
       END IF

3. variables named in a loop's ``REDUCTION(...)`` clause are asserted
   to be reductions even if idiom matching fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.expr import ArrayElemRef, BinOp, Expr, IntrinsicCall, ScalarRef
from ..ir.program import Procedure
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt, Stmt
from ..ir.symbols import ScalarType, Symbol
from .ssa import SSAInfo


@dataclass
class Reduction:
    """One recognized reduction.

    ``op`` ∈ {"+", "*", "MAX", "MIN", "MAXLOC", "MINLOC"}.
    ``loop`` is the innermost loop carrying the accumulation.
    ``update_stmts`` are the statements forming the reduction body.
    ``candidate_refs`` are partitioned-array rhs references appearing in
    the reduction computation — potential alignment targets for the
    partial-reduction result (paper Fig. 5: ``A(i, j)``).
    ``location_symbol`` is the index variable of a maxloc/minloc.
    ``accumulator`` is set for *array-valued* reductions
    (``S(i) = S(i) + A(i, j)``) — paper Section 3.1: "The privatizable
    arrays used to hold results of a reduction operation are also
    handled in a similar manner as scalar variables in reduction
    computations."
    """

    symbol: Symbol
    op: str
    loop: LoopStmt
    update_stmts: list[AssignStmt] = field(default_factory=list)
    candidate_refs: list[ArrayElemRef] = field(default_factory=list)
    location_symbol: Symbol | None = None
    from_directive: bool = False
    accumulator: ArrayElemRef | None = None

    @property
    def is_array_reduction(self) -> bool:
        return self.accumulator is not None


def _strip_abs(expr: Expr) -> Expr:
    if isinstance(expr, IntrinsicCall) and expr.name == "ABS" and len(expr.args) == 1:
        return expr.args[0]
    return expr


def _scalar_name(expr: Expr) -> str | None:
    if isinstance(expr, ScalarRef):
        return expr.symbol.name
    return None


def _array_refs(expr: Expr) -> list[ArrayElemRef]:
    return [r for r in expr.refs() if isinstance(r, ArrayElemRef)]


def _accumulation_op(stmt: AssignStmt, symbol: Symbol) -> tuple[str, Expr] | None:
    """If ``stmt`` is ``symbol = symbol op e`` (op commutative) or a
    MAX/MIN intrinsic accumulation, return (op, e)."""
    rhs = stmt.rhs
    if isinstance(rhs, BinOp) and rhs.op in ("+", "*"):
        if _scalar_name(rhs.left) == symbol.name:
            return rhs.op, rhs.right
        if _scalar_name(rhs.right) == symbol.name:
            return rhs.op, rhs.left
        # s = s - e  is a sum reduction too
    if isinstance(rhs, BinOp) and rhs.op == "-" and _scalar_name(rhs.left) == symbol.name:
        return "+", rhs.right
    if isinstance(rhs, IntrinsicCall) and rhs.name in ("MAX", "MIN") and len(rhs.args) == 2:
        if _scalar_name(rhs.args[0]) == symbol.name:
            return rhs.name, rhs.args[1]
        if _scalar_name(rhs.args[1]) == symbol.name:
            return rhs.name, rhs.args[0]
    return None


def _defs_of_symbol_in(proc: Procedure, loop: LoopStmt, name: str) -> list[AssignStmt]:
    out = []
    for stmt in loop.walk():
        if isinstance(stmt, AssignStmt) and isinstance(stmt.lhs, ScalarRef):
            if stmt.lhs.symbol.name == name:
                out.append(stmt)
    return out


def _uses_of_symbol_in(loop: LoopStmt, name: str) -> list[tuple[Stmt, ScalarRef]]:
    out = []
    for stmt in loop.walk():
        for ref in stmt.uses():
            if isinstance(ref, ScalarRef) and ref.symbol.name == name:
                out.append((stmt, ref))
    return out


def _find_accumulations(proc: Procedure, ssa: SSAInfo, loop: LoopStmt) -> list[Reduction]:
    found: list[Reduction] = []
    for stmt in loop.body:
        if not isinstance(stmt, AssignStmt) or not isinstance(stmt.lhs, ScalarRef):
            continue
        symbol = stmt.lhs.symbol
        acc = _accumulation_op(stmt, symbol)
        if acc is None:
            continue
        op, contribution = acc
        # contribution must not reference the accumulator
        if any(
            isinstance(r, ScalarRef) and r.symbol.name == symbol.name
            for r in contribution.refs()
        ):
            continue
        # single def of the accumulator inside the loop
        if len(_defs_of_symbol_in(proc, loop, symbol.name)) != 1:
            continue
        # accumulator must not be otherwise read inside the loop
        other_uses = [
            (s, r)
            for s, r in _uses_of_symbol_in(loop, symbol.name)
            if s is not stmt
        ]
        if other_uses:
            continue
        # the rhs use must be loop-carried (sees the header phi)
        rhs_use = next(
            r
            for r in stmt.rhs.refs()
            if isinstance(r, ScalarRef) and r.symbol.name == symbol.name
        )
        seen = ssa.defs.get(ssa.use_def.get(rhs_use.ref_id, -1))
        if seen is None or seen.kind != "phi":
            continue
        found.append(
            Reduction(
                symbol=symbol,
                op=op,
                loop=loop,
                update_stmts=[stmt],
                candidate_refs=_array_refs(contribution),
            )
        )
    return found


def _find_array_accumulations(proc: Procedure, loop: LoopStmt) -> list[Reduction]:
    """Array-valued accumulations ``S(f(outer)) = S(f(outer)) op e``
    whose accumulator subscripts are invariant with respect to the
    reduction loop (so the same element accumulates across the loop's
    iterations)."""
    found: list[Reduction] = []
    for stmt in loop.walk():
        if not isinstance(stmt, AssignStmt) or not isinstance(stmt.lhs, ArrayElemRef):
            continue
        if stmt.loop is None or not (
            stmt.loop is loop or proc.encloses(loop, stmt.loop)
        ):
            continue
        lhs = stmt.lhs
        # Subscripts must not vary with the reduction loop's index.
        invariant = True
        for form in lhs.forms:
            if form is None or form.coeff(loop.var) != 0:
                invariant = False
                break
        if not invariant:
            continue
        # rhs must be 'lhs op contribution' with matching subscripts.
        rhs = stmt.rhs
        acc_str = str(lhs)
        op: str | None = None
        contribution: Expr | None = None
        if isinstance(rhs, BinOp) and rhs.op in ("+", "*"):
            if str(rhs.left) == acc_str:
                op, contribution = rhs.op, rhs.right
            elif str(rhs.right) == acc_str:
                op, contribution = rhs.op, rhs.left
        elif isinstance(rhs, BinOp) and rhs.op == "-" and str(rhs.left) == acc_str:
            op, contribution = "+", rhs.right
        elif (
            isinstance(rhs, IntrinsicCall)
            and rhs.name in ("MAX", "MIN")
            and len(rhs.args) == 2
        ):
            if str(rhs.args[0]) == acc_str:
                op, contribution = rhs.name, rhs.args[1]
            elif str(rhs.args[1]) == acc_str:
                op, contribution = rhs.name, rhs.args[0]
        if op is None or contribution is None:
            continue
        if any(
            isinstance(r, ArrayElemRef) and r.symbol.name == lhs.symbol.name
            for r in contribution.refs()
        ):
            continue
        # The accumulator must have no other write, and no other read,
        # inside the loop.
        clean = True
        for other in loop.walk():
            if other is stmt:
                continue
            for ref in other.defs():
                if isinstance(ref, ArrayElemRef) and ref.symbol.name == lhs.symbol.name:
                    clean = False
            for ref in other.uses():
                if isinstance(ref, ArrayElemRef) and ref.symbol.name == lhs.symbol.name:
                    clean = False
        if not clean:
            continue
        found.append(
            Reduction(
                symbol=lhs.symbol,
                op=op,
                loop=loop,
                update_stmts=[stmt],
                candidate_refs=_array_refs(contribution),
                accumulator=lhs,
            )
        )
    return found


def _find_maxloc(proc: Procedure, loop: LoopStmt) -> list[Reduction]:
    found = (match_maxloc(stmt, loop) for stmt in loop.body)
    return [r for r in found if r is not None]


def match_maxloc(stmt: Stmt, loop: LoopStmt) -> Reduction | None:
    """Match ``IF (cand REL s) THEN s = cand [; l = idx] END IF`` in
    ``loop``'s body.  The branch assigns only scalars, distinct, none a
    loop index or LOGICAL, and no rhs reads a scalar the branch writes:
    ``cand`` and ``idx`` are then values of the iteration alone.  The
    vector engines evaluate the same match as a masked fold
    (:func:`repro.codegen.veceval.masked_fold`)."""
    if not isinstance(stmt, IfStmt) or stmt.else_body:
        return None
    cond = stmt.cond
    if not isinstance(cond, BinOp) or cond.op not in (">", ">=", "<", "<="):
        return None
    assigns = [s for s in stmt.then_body if isinstance(s, AssignStmt)]
    if len(assigns) != len(stmt.then_body) or not 0 < len(assigns) <= 2:
        return None
    if not all(
        isinstance(a.lhs, ScalarRef) and not a.lhs.symbol.is_loop_var
        and a.lhs.symbol.type is not ScalarType.LOGICAL
        for a in assigns
    ):
        return None
    names = [a.lhs.symbol.name for a in assigns]
    if len(set(names)) != len(names) or any(
        ref.symbol.name in names for a in assigns for ref in a.rhs.refs()
    ):
        return None
    # One side of the comparison must be a scalar (the accumulator),
    # the other the candidate expression.
    for acc_side, cand_side in ((cond.right, cond.left), (cond.left, cond.right)):
        name = _scalar_name(acc_side)
        if name not in names:
            continue
        value_assign = assigns[names.index(name)]
        # The updated value must equal the candidate expression.
        if str(value_assign.rhs) != str(cand_side):
            continue
        loc_assign = next((a for a in assigns if a is not value_assign), None)
        bigger_wins = (cond.op in (">", ">=")) == (acc_side is cond.right)
        op = "MAXLOC" if loc_assign is not None else ("MAX" if bigger_wins else "MIN")
        if loc_assign is not None and not bigger_wins:
            op = "MINLOC"
        return Reduction(
            symbol=value_assign.lhs.symbol,
            op=op,
            loop=loop,
            update_stmts=[value_assign] + ([loc_assign] if loc_assign else []),
            candidate_refs=_array_refs(_strip_abs(cand_side)),
            location_symbol=(
                loc_assign.lhs.symbol if loc_assign is not None else None
            ),
        )
    return None


def _array_touches_in(loop: LoopStmt, name: str) -> list[Stmt]:
    """Statements in ``loop`` referencing array ``name`` in any way."""
    out = []
    for stmt in loop.walk():
        refs = list(stmt.defs()) + list(stmt.uses())
        if any(isinstance(r, ArrayElemRef) and r.symbol.name == name for r in refs):
            out.append(stmt)
    return out


def _grow_reduction(proc: Procedure, reduction: Reduction) -> None:
    """Extend the reduction loop outward across perfectly-accumulating
    enclosing loops: an enclosing loop whose only definitions and uses
    of the accumulator are the update statements themselves carries the
    same reduction (e.g. TOMCATV's residual max over the whole i/j
    nest)."""
    update_ids = {s.stmt_id for s in reduction.update_stmts}
    loop = reduction.loop
    if reduction.is_array_reduction:
        # Array accumulators: grow while the outer loop touches the
        # accumulator only through the update statement AND the
        # accumulator subscripts stay invariant in the outer loop.
        while loop.loop is not None:
            outer = loop.loop
            touches = _array_touches_in(outer, reduction.symbol.name)
            if {s.stmt_id for s in touches} != update_ids:
                break
            invariant = all(
                form is not None and form.coeff(outer.var) == 0
                for form in reduction.accumulator.forms
            )
            if not invariant:
                break
            loop = outer
        reduction.loop = loop
        return
    while loop.loop is not None:
        outer = loop.loop
        defs = _defs_of_symbol_in(proc, outer, reduction.symbol.name)
        if {d.stmt_id for d in defs} != update_ids:
            break
        uses = _uses_of_symbol_in(outer, reduction.symbol.name)
        if any(s.stmt_id not in update_ids for s, _ in uses):
            break
        if reduction.location_symbol is not None:
            loc_defs = _defs_of_symbol_in(proc, outer, reduction.location_symbol.name)
            if {d.stmt_id for d in loc_defs} - update_ids:
                break
        loop = outer
    reduction.loop = loop


def find_reductions(proc: Procedure, ssa: SSAInfo) -> list[Reduction]:
    """All recognized reductions in the procedure, innermost-loop first."""
    result: list[Reduction] = []
    seen_array_updates: set[int] = set()
    for loop in proc.loops():
        accs = _find_accumulations(proc, ssa, loop)
        locs = _find_maxloc(proc, loop)
        arrs = [
            r
            for r in _find_array_accumulations(proc, loop)
            if r.update_stmts[0].stmt_id not in seen_array_updates
        ]
        seen_array_updates.update(r.update_stmts[0].stmt_id for r in arrs)
        found = accs + locs + arrs
        for r in found:
            _grow_reduction(proc, r)
        # REDUCTION clause assertions not matched by an idiom.
        matched = {r.symbol.name for r in found}
        for name in loop.reduction_vars:
            if name in matched:
                for r in found:
                    if r.symbol.name == name:
                        r.from_directive = True
                continue
            defs = _defs_of_symbol_in(proc, loop, name)
            if defs:
                symbol = defs[0].lhs.symbol
                result.append(
                    Reduction(
                        symbol=symbol,
                        op="+",
                        loop=loop,
                        update_stmts=defs,
                        candidate_refs=[
                            r for d in defs for r in _array_refs(d.rhs)
                        ],
                        from_directive=True,
                    )
                )
        result.extend(found)
    return result


def reduction_for_def(
    reductions: list[Reduction], stmt: AssignStmt
) -> Reduction | None:
    """The reduction (if any) whose update set contains ``stmt``."""
    for r in reductions:
        if any(s is stmt for s in r.update_stmts):
            return r
    return None
