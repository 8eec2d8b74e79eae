"""Scalar expansion — the classical alternative the paper's related
work contrasts with (Padua & Wolfe [16]; array expansion, Feautrier
[7]).

Expansion removes the storage-related anti/output dependences of a
privatizable scalar by materializing one element per loop iteration:
``x`` in ``DO i`` becomes ``X_XP(i)``, every definition/use inside the
loop is rewritten to ``X_XP(i)``, and the new array is aligned with the
scalar's would-be consumer target so the owner-computes rule still
places the computation sensibly.

The paper's framework achieves the same parallelism with *O(1)* storage
per processor (a privatized copy) instead of *O(n)*; this module exists
to measure exactly that trade-off (`benchmarks/bench_expansion.py`).

The transformation is a source-level rewrite producing a new
:class:`~repro.ir.program.Procedure` that compiles through the ordinary
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.build import parse_and_build
from ..ir.expr import (
    ArrayElemRef,
    Expr,
    ScalarRef,
    clone_expr,
)
from ..ir.program import AlignSpec, Procedure
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt
from ..ir.symbols import Symbol, SymbolKind
from .context import AnalysisContext
from .passes import build_context
from .mapping_kinds import AlignedTo


@dataclass
class ExpansionResult:
    proc: Procedure
    #: scalar name -> expansion array name
    expanded: dict[str, str] = field(default_factory=dict)


def _expansion_candidates(ctx: AnalysisContext) -> dict[str, LoopStmt]:
    """Scalars to expand: privatizable, defined and used within one
    loop, not induction/reduction variables (those have their own
    treatments in both worlds)."""
    reduction_names = {r.symbol.name for r in ctx.reductions} | {
        r.location_symbol.name
        for r in ctx.reductions
        if r.location_symbol is not None
    }
    induction_names = {iv.symbol.name for iv in ctx.inductions}
    candidates: dict[str, LoopStmt] = {}
    for stmt in ctx.proc.assignments():
        if not isinstance(stmt.lhs, ScalarRef):
            continue
        name = stmt.lhs.symbol.name
        if name in reduction_names or name in induction_names:
            continue
        d = ctx.ssa.def_of_assignment(stmt)
        if d is None or stmt.loop is None:
            continue
        if not ctx.priv.is_privatizable(d):
            candidates.pop(name, None)
            continue
        loop = stmt.loop
        previous = candidates.get(name)
        if previous is not None and previous is not loop:
            candidates.pop(name, None)  # used across distinct loops: skip
            continue
        candidates[name] = loop
    return candidates


def _rewrite_expr(expr: Expr, name: str, replacement: ArrayElemRef) -> Expr:
    if isinstance(expr, ScalarRef):
        if expr.symbol.name == name:
            return clone_expr(replacement)
        return expr
    if isinstance(expr, ArrayElemRef):
        expr.subscripts = [
            _rewrite_expr(s, name, replacement) for s in expr.subscripts
        ]
        return expr
    for attr in ("left", "right", "operand"):
        child = getattr(expr, attr, None)
        if child is not None:
            setattr(expr, attr, _rewrite_expr(child, name, replacement))
    args = getattr(expr, "args", None)
    if args is not None:
        expr.args = [_rewrite_expr(a, name, replacement) for a in args]
    return expr


def expand_scalars(source: str, num_procs: int | None = None) -> ExpansionResult:
    """Apply scalar expansion to every eligible privatizable scalar and
    return the transformed procedure (plus the renaming map)."""
    proc = parse_and_build(source)
    ctx = build_context(proc, num_procs=num_procs)
    candidates = _expansion_candidates(ctx)
    # Alignment targets must be computed before the rewriting destroys
    # the scalar definitions the mapping pass inspects.
    targets = {name: _consumer_target_of(ctx, name) for name in candidates}

    expanded: dict[str, str] = {}
    for name, loop in candidates.items():
        scalar = ctx.proc.symbols.require(name)
        array_name = f"{name}_XP"
        if array_name in ctx.proc.symbols:
            continue
        # Classical expansion: one dimension per loop being
        # parallelized — the loops whose indices traverse the consumer
        # target's subscripts (there is no point expanding across a
        # sequential time-step loop). Each dimension is sized by its
        # loop's constant bounds; non-constant bounds disqualify.
        target = targets.get(name)
        if target is None:
            continue  # replicated-data temporaries stay scalars
        chain = [
            l
            for l in [*loop.loops_enclosing(), loop]
            if _drives_target(l, target)
        ]
        if not chain:
            continue
        dims: list[tuple[int, int]] = []
        for l in chain:
            low = ctx.const.eval_expr(l.low)
            high = ctx.const.eval_expr(l.high)
            if not isinstance(low, int) or not isinstance(high, int) or high < low:
                dims = []
                break
            dims.append((low, high))
        if not dims:
            continue
        exp = ctx.proc.symbols.declare(
            Symbol(
                name=array_name,
                kind=SymbolKind.ARRAY,
                type=scalar.type,
                dims=tuple(dims),
            )
        )
        replacement = ArrayElemRef(
            symbol=exp,
            subscripts=[ScalarRef(symbol=l.var) for l in chain],
        )
        # Rewrite within the outermost loop of the chain (the scalar is
        # privatizable, so all its uses live there).
        region = chain[0]
        for stmt in region.walk():
            if isinstance(stmt, AssignStmt):
                if isinstance(stmt.lhs, ScalarRef) and stmt.lhs.symbol.name == name:
                    stmt.lhs = clone_expr(replacement)
                elif isinstance(stmt.lhs, ArrayElemRef):
                    stmt.lhs.subscripts = [
                        _rewrite_expr(s, name, replacement)
                        for s in stmt.lhs.subscripts
                    ]
                stmt.rhs = _rewrite_expr(stmt.rhs, name, replacement)
            elif isinstance(stmt, IfStmt):
                stmt.cond = _rewrite_expr(stmt.cond, name, replacement)
            elif isinstance(stmt, LoopStmt) and stmt is not region:
                stmt.low = _rewrite_expr(stmt.low, name, replacement)
                stmt.high = _rewrite_expr(stmt.high, name, replacement)
        # Align the expanded array with the consumer the mapping
        # algorithm would have chosen for the scalar: each expansion
        # dimension maps to the target dimension traversed by the same
        # loop index, so ownership placement matches the privatized
        # version.
        self_align = _alignment_for_expansion(ctx, exp, chain, target)
        if self_align is not None:
            ctx.proc.aligns.append(self_align)
        expanded[name] = array_name

    ctx.proc.finalize()
    return ExpansionResult(proc=ctx.proc, expanded=expanded)


def _drives_target(loop: LoopStmt, target: ArrayElemRef) -> bool:
    from ..ir.expr import affine_form

    for sub in target.subscripts:
        form = affine_form(sub)
        if form is not None and form.coeff(loop.var) != 0:
            return True
    return False


def _alignment_for_expansion(
    ctx: AnalysisContext,
    exp: Symbol,
    chain: list[LoopStmt],
    target: ArrayElemRef,
) -> AlignSpec | None:
    """Dimension-wise alignment of the expanded array: expansion dim k
    (indexed by loop var v_k) maps onto the target array dimension whose
    subscript is driven by v_k."""
    from ..ir.expr import affine_form

    t_mapping = ctx.array_mappings.get(target.symbol.name)
    if t_mapping is None:
        return None
    axis_map: list[tuple[int, int, int] | None] = [None] * exp.rank
    matched_dims: set[int] = set()
    for k, l in enumerate(chain):
        for t_dim, sub in enumerate(target.subscripts):
            form = affine_form(sub)
            if form is not None and form.coeff(l.var) != 0 and t_dim not in matched_dims:
                stride = form.coeff(l.var)
                offset = form.const
                axis_map[k] = (t_dim, stride, offset)
                matched_dims.add(t_dim)
                break
    if not any(m is not None for m in axis_map):
        return None
    replicated = tuple(
        role.array_dim
        for role in t_mapping.roles
        if role.kind == "dist" and role.array_dim not in matched_dims
    )
    return AlignSpec(
        array=exp,
        target=target.symbol,
        axis_map=tuple(axis_map),
        replicated_target_dims=replicated,
    )


def _consumer_target_of(ctx: AnalysisContext, name: str):
    """What the paper's algorithm would align the scalar with — run the
    scalar mapping pass once and look up the decision."""
    from .scalar_mapping import ScalarMappingOptions, run_scalar_mapping

    scalar_pass = run_scalar_mapping(ctx, ScalarMappingOptions())
    for stmt in ctx.proc.assignments():
        if isinstance(stmt.lhs, ScalarRef) and stmt.lhs.symbol.name == name:
            d = ctx.ssa.def_of_assignment(stmt)
            if d is None:
                continue
            mapping = scalar_pass.decisions.get(d.def_id)
            if isinstance(mapping, AlignedTo):
                return mapping.target
    return None
