"""Tier 3: slab-vectorized loop execution.

The lowered closures of :mod:`repro.machine.lowering` (tier 2) still
execute one iteration x one rank x one element at a time.  This module
batches whole loop nests into per-rank numpy kernels — the "generalized
data-parallel operation" view of the paper's privatized loops: each
rank evaluates its owned iteration slab as sliced array expressions and
the virtual clocks are charged in closed form from per-statement charge
tapes.

Eligibility (the fallback ladder's top rung) is decided in two stages:

* a **static classification** (:func:`classify_procedure`, run as the
  ``slabexec`` compiler pass) checks the shape of each loop nest —
  assign-only bodies, affine subscripts, executor sets constant in the
  inner loop variable, communication placed at or above the loop per
  the communication analysis, and no loop-carried dependence at the
  loop per :mod:`repro.analysis.dependence`;
* a **runtime plan** rechecks everything that depends on live state
  (validity of read operands, executor rank sets, divisors, subscript
  bounds) and *bails* — executing nothing and mutating nothing — the
  moment any assumption fails.  A bailed takeover falls back to the
  tier-2 lowered closures, which reproduce the per-iteration semantics
  (including any error and its exact partial state) bit for bit.

Bit-for-bit clock identity is guaranteed by construction: per-instance
compute charges are precomputed ``dt`` values replayed through
``np.add.accumulate`` (strictly sequential, unlike pairwise
``np.sum``), so a slab charges exactly the floating-point sum the
per-iteration path would have produced.  Reads of elements the
executing rank does not hold are fetched inside the takeover:
:class:`_FetchLog` records each one at its first read in per-iteration
order and replays messages and compute in that order at commit, so
``TrafficStats`` and the clocks see tier 2's exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from ..codegen.veceval import (
    _BOUND_ERRORS,
    _RED_UFUNC,
    _Bail,
    _Ctx,
    _affine_vec,
    _bounds_checked_offset,
    _canon_form,
    _carried_dependence,
    _check_affine_refs,
    _coerce_vec,
    _eval,
    _fold_lanes,
    _reduction_operand,
    _stmt_array_refs,
)
from ..comm.analysis import hoisted_loop_vars
from ..errors import MappingError
from ..ir.expr import (
    ArrayElemRef,
    BinOp,
    IntrinsicCall,
    ScalarRef,
    affine_form,
)
from ..ir.stmt import AssignStmt, ContinueStmt, IfStmt, LoopStmt
from .stats import sequential_sum

_MISSING = object()


def slab_trip_count(low, high, step):
    """Trip count of ``DO v = low, high, step`` (0 when empty).

    Closed form ``max(0, (high - low + step) // step)``; ``low``/
    ``high`` may be per-column vectors (triangular nests)."""
    n = (high - low + step) // step
    if np.ndim(n) == 0:
        return max(int(n), 0)
    return np.maximum(n, 0)


def _form_symbols(form):
    return [s for s, c in form.coeffs if c != 0]


# ---------------------------------------------------------------------------
# Static classification (the ``slabexec`` compiler pass)
# ---------------------------------------------------------------------------


@dataclass
class SlabReport:
    """Pass product: per-loop slab eligibility.

    ``inner`` maps innermost-loop statement ids to ``"ok"`` or the first
    failing reason; ``column`` does the same for outer loops wrapping a
    single ineligible inner loop (executed column-wise); ``triangular``
    covers outer loops wrapping exactly one inner loop whose bounds may
    vary with the outer index (imperfect nests with prologue/epilogue
    assigns included).  Plain ids and strings only, so the product
    pickles with the compiled program and is rebuilt (like the
    lowering) when ``ir_epoch`` is stale.
    """

    ir_epoch: int
    inner: dict[int, str] = field(default_factory=dict)
    column: dict[int, str] = field(default_factory=dict)
    triangular: dict[int, str] = field(default_factory=dict)

    def eligible_loops(self) -> set[int]:
        """Statement ids of every loop with at least one "ok" verdict."""
        out: set[int] = set()
        for table in (self.inner, self.column, self.triangular):
            out.update(sid for sid, v in table.items() if v == "ok")
        return out

    def summary(self) -> dict[str, int]:
        tri = self.triangular
        return {
            "inner_ok": sum(1 for v in self.inner.values() if v == "ok"),
            "inner_total": len(self.inner),
            "column_ok": sum(1 for v in self.column.values() if v == "ok"),
            "column_total": len(self.column),
            "triangular_ok": sum(1 for v in tri.values() if v == "ok"),
            "triangular_total": len(tri),
        }


def _placement_map(events) -> dict[int, list[int]]:
    """stmt_id -> placement levels of every comm event charged to it
    (including refs absorbed by message combining)."""
    placements: dict[int, list[int]] = {}
    for e in events:
        refs = [(e.stmt, e)] + [
            (a.stmt, e) for a in list(e.aliases) + list(e.combined_with)
        ]
        for stmt, ev in refs:
            placements.setdefault(stmt.stmt_id, []).append(ev.placement_level)
    return placements


def _check_executor(info, v: str | None) -> str | None:
    """Executor must be an owner/all set whose position does not vary
    with the vectorized loop variable ``v`` (None: any loop var)."""
    if info is None:
        return "no executor info"
    if info.kind not in ("owner", "all"):
        return f"executor kind {info.kind}"
    if info.kind == "owner":
        for dim in info.position:
            if dim.kind == "pos" and dim.form is not None:
                for sym in dim.form.symbols:
                    if v is not None and sym.name == v and sym.value is None:
                        return f"executor position varies with {v}"
    return None


def _classify_inner(proc, loop: LoopStmt, executors, placements,
                    reduction_ids) -> str:
    v = loop.var.name
    assigns = []
    for s in loop.body:
        if isinstance(s, ContinueStmt):
            continue
        if not isinstance(s, AssignStmt):
            return f"body contains {type(s).__name__}"
        assigns.append(s)
    if not assigns:
        return "empty body"
    for s in assigns:
        reason = _check_executor(executors.get(s.stmt_id), v)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        reason = _check_affine_refs(s)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        for level in placements.get(s.stmt_id, ()):
            if level >= loop.level:
                return f"S{s.stmt_id}: communication placed inside the loop"
    return _carried_dependence(proc, loop, assigns, reduction_ids) or "ok"


def _split_nest(loop: LoopStmt):
    """``(inner, pre, body, post)`` of an outer loop whose body is
    straight-line assigns around exactly one assign-only inner loop —
    or the reason (a string) it is not of that shape."""
    inner: LoopStmt | None = None
    pre: list[AssignStmt] = []
    post: list[AssignStmt] = []
    for s in loop.body:
        if isinstance(s, ContinueStmt):
            continue
        if isinstance(s, LoopStmt):
            if inner is not None:
                return "more than one inner loop"
            inner = s
        elif not isinstance(s, AssignStmt):
            return f"body contains {type(s).__name__}"
        else:
            (pre if inner is None else post).append(s)
    if inner is None:
        return "no inner loop"
    body: list[AssignStmt] = []
    for s in inner.body:
        if isinstance(s, ContinueStmt):
            continue
        if not isinstance(s, AssignStmt):
            return f"inner body contains {type(s).__name__}"
        body.append(s)
    return inner, pre, body, post


def _classify_column(proc, loop: LoopStmt, executors, placements,
                     reduction_ids, grid_rank) -> str:
    """An outer loop executed column-wise: its body is straight-line
    assigns around exactly one inner loop; every statement runs on the
    owner of the same position (a function of the outer variable only),
    and every array touches exactly its outer-variable column — so the
    columns evolve independently and one rank-sliced numpy pass per
    statement reproduces the sequential per-column semantics."""
    if grid_rank is not None and grid_rank != 1:
        return "grid is not one-dimensional"
    j = loop.var.name
    nest = _split_nest(loop)
    if isinstance(nest, str):
        return nest
    inner, pre, body, post = nest
    i = inner.var.name
    all_assigns = pre + post + body
    if not all_assigns:
        return "empty body"
    # inner bounds must be invariant over the takeover
    for bound in (inner.low, inner.high, inner.step):
        if bound is None:
            continue
        for ref in bound.refs():
            if isinstance(ref, ScalarRef) and ref.symbol.name in (j, i):
                return "inner bounds vary with the loop variables"
    canon_pos = _MISSING
    for s in all_assigns:
        if s.stmt_id in reduction_ids:
            return f"S{s.stmt_id}: reduction update in body"
        info = executors.get(s.stmt_id)
        reason = _check_executor(info, None)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        if info.kind != "owner":
            return f"S{s.stmt_id}: executor kind {info.kind}"
        pos = tuple(
            _canon_form(dim.form)
            if dim.kind == "pos" and dim.form is not None
            else dim.kind
            for dim in info.position
        )
        if canon_pos is _MISSING:
            canon_pos = pos
        elif pos != canon_pos:
            return "executor position differs across statements"
        reason = _check_affine_refs(s)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        for level in placements.get(s.stmt_id, ()):
            if level >= loop.level:
                return f"S{s.stmt_id}: communication placed inside the loop"
    # every array must touch exactly its own column: one dimension
    # subscripted exactly ``j`` in every ref, the others ``j``-free
    jdims: dict[str, int] = {}
    for s in all_assigns:
        for ref in _stmt_array_refs(s):
            name = ref.symbol.name
            ref_jdims = []
            for d, sub in enumerate(ref.subscripts):
                form = affine_form(sub)
                canon = _canon_form(form)
                if canon == (0, ((j, 1),)):
                    ref_jdims.append(d)
                elif any(nm == j for nm, _ in canon[1]):
                    return f"{name}: mixed {j}-subscript"
            if len(ref_jdims) != 1:
                return f"{name}: no unique {j}-column dimension"
            d = ref_jdims[0]
            if jdims.setdefault(name, d) != d:
                return f"{name}: inconsistent {j}-column dimension"
            if len(ref.subscripts) != 2:
                return f"{name}: only rank-2 arrays supported"
    return "ok"


def _replicated_exec(info) -> bool:
    """True when the statement executes on every rank, invariantly:
    replicated ("all") or privatized/no-guard ("union") executors whose
    position constrains no grid dimension."""
    return (
        info is not None
        and info.kind in ("all", "union")
        and all(
            dim.kind != "pos" or dim.form is None for dim in info.position
        )
    )


def _classify_triangular(proc, loop: LoopStmt, executors, placements,
                         reduction_ids, grid_rank, inner_ok=False) -> str:
    """An outer loop executed as one flattened slab: straight-line
    assigns around exactly one inner loop whose bounds may be affine in
    the outer variable (triangular nests) — per-column slab widths vary
    with the outer index.  Every statement runs on the owner of the
    same outer-variable position, every store names its own column,
    and arrays are written only inside the inner loop.  Reads may
    leave the column — the part of the kernel's signature a rank needs
    but does not own, fetched at run time: of an array the nest never
    writes freely, of a written one when no value flows between outer
    iterations.  The columns then evolve independently and the whole
    imperfect nest commits as one takeover."""
    if grid_rank is not None and grid_rank != 1:
        return "grid is not one-dimensional"
    j = loop.var.name
    nest = _split_nest(loop)
    if isinstance(nest, str):
        return nest
    inner, pre, body, post = nest
    i = inner.var.name
    all_assigns = pre + body + post
    if not body:
        return "empty inner body"
    # inner bounds may vary with the outer variable (that is the point)
    # but not with the inner variable; the step must be invariant
    for bound, tag in ((inner.low, "low"), (inner.high, "high")):
        form = affine_form(bound) if bound is not None else None
        if form is None:
            return f"inner {tag} bound not affine"
        for sym, _c in form.coeffs:
            if sym.value is None and sym.name == i:
                return "inner bounds vary with the inner variable"
    if inner.step is not None:
        form = affine_form(inner.step)
        if form is None:
            return "inner step not affine"
        for sym, _c in form.coeffs:
            if sym.value is None and sym.name in (i, j):
                return "inner step varies with the loop variables"
    canon_pos = _MISSING
    for s in all_assigns:
        if s.stmt_id in reduction_ids:
            return f"S{s.stmt_id}: reduction update in body"
        info = executors.get(s.stmt_id)
        if info is None:
            return f"S{s.stmt_id}: no executor info"
        if _replicated_exec(info):
            # every rank runs it each iteration: fine for scalar-only
            # statements with rank-invariant operands (checked at run
            # time); arrays would read per-rank state
            if isinstance(s.lhs, ArrayElemRef) or _stmt_array_refs(s):
                return f"S{s.stmt_id}: replicated statement touches arrays"
            for level in placements.get(s.stmt_id, ()):
                if level >= loop.level:
                    return (
                        f"S{s.stmt_id}: communication placed inside the loop"
                    )
            continue
        reason = _check_executor(info, None)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        if info.kind != "owner" or len(info.position) != 1:
            return f"S{s.stmt_id}: executor is not a 1-D owner position"
        dim = info.position[0]
        if dim.kind != "pos" or dim.form is None:
            return f"S{s.stmt_id}: executor position is not a point"
        pos = _canon_form(dim.form)
        if canon_pos is _MISSING:
            canon_pos = pos
        elif pos != canon_pos:
            return "executor position differs across statements"
        for sym, _c in dim.form.coeffs:
            if sym.value is None and sym.name == i:
                return "executor position varies with the inner variable"
        reason = _check_affine_refs(s)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        for level in placements.get(s.stmt_id, ()):
            if level >= loop.level:
                return f"S{s.stmt_id}: communication placed inside the loop"
    if canon_pos is _MISSING:
        return "no owner-positioned statement"
    # column discipline: a store subscripts one dimension exactly
    # ``j`` and keeps the others ``j``-free; arrays are written only in
    # the inner loop, and prologue/epilogue refs are ``i``-free
    inner_written = {
        s.lhs.symbol.name for s in body if isinstance(s.lhs, ArrayElemRef)
    }
    jdims: dict[str, int] = {}
    for s in all_assigns:
        in_body = s in body
        if not in_body and isinstance(s.lhs, ArrayElemRef):
            return "array written outside the inner loop"
        for ref in _stmt_array_refs(s):
            name = ref.symbol.name
            if not in_body and name in inner_written:
                return f"{name}: written array read outside the inner loop"
            canons = [_canon_form(affine_form(sub)) for sub in ref.subscripts]
            if not in_body and any(nm == i for c in canons for nm, _ in c[1]):
                return f"{name}: {i}-subscript outside the inner loop"
            if ref is not s.lhs:
                continue
            ref_jdims = [
                d for d, c in enumerate(canons) if c == (0, ((j, 1),))
            ]
            if any(
                nm == j
                for d, c in enumerate(canons)
                if d not in ref_jdims
                for nm, _ in c[1]
            ):
                return f"{name}: mixed {j}-subscript"
            if len(ref_jdims) != 1:
                return f"{name}: no unique {j}-column dimension"
            if jdims.setdefault(name, ref_jdims[0]) != ref_jdims[0]:
                return f"{name}: inconsistent {j}-column dimension"
    # no value may flow between inner iterations of a column (already
    # established when the inner loop's own verdict is ok), nor — now
    # that reads leave the column — between columns
    levels = [(loop, frozenset((i,)))]
    if not inner_ok:
        levels.insert(0, (inner, frozenset()))
    for level, inner_vars in levels:
        reason = _carried_dependence(
            proc, level, body, reduction_ids, inner_vars
        )
        if reason is not None:
            return reason
    return "ok"


def classify_procedure(proc, executors, events, reduction_ids,
                       grid_rank=None) -> SlabReport:
    """Statically classify every loop nest for slab eligibility."""
    placements = _placement_map(events)
    report = SlabReport(ir_epoch=proc.ir_epoch)

    def visit(stmts):
        for s in stmts:
            if isinstance(s, LoopStmt):
                nested = [b for b in s.body if isinstance(b, LoopStmt)]
                if not nested:
                    report.inner[s.stmt_id] = _classify_inner(
                        proc, s, executors, placements, reduction_ids
                    )
                elif (
                    len(nested) == 1
                    and report.inner.get(nested[0].stmt_id) != "ok"
                ):
                    pass  # classified below, after visiting children
                visit(s.body)
            elif isinstance(s, IfStmt):
                visit(s.then_body)
                visit(s.else_body)

    visit(proc.body)

    def visit_columns(stmts):
        for s in stmts:
            if isinstance(s, LoopStmt):
                nested = [b for b in s.body if isinstance(b, LoopStmt)]
                if (
                    len(nested) == 1
                    and report.inner.get(nested[0].stmt_id, "") != "ok"
                ):
                    report.column[s.stmt_id] = _classify_column(
                        proc, s, executors, placements, reduction_ids,
                        grid_rank,
                    )
                if len(nested) == 1:
                    # classified even when the inner loop is itself
                    # eligible: the outer takeover preempts; a bail
                    # falls back to tier 2, which re-enters the inner
                    # loop's own takeover
                    report.triangular[s.stmt_id] = _classify_triangular(
                        proc, s, executors, placements, reduction_ids,
                        grid_rank,
                        inner_ok=report.inner.get(nested[0].stmt_id) == "ok",
                    )
                visit_columns(s.body)
            elif isinstance(s, IfStmt):
                visit_columns(s.then_body)
                visit_columns(s.else_body)

    visit_columns(proc.body)
    return report

# ---------------------------------------------------------------------------
# Runtime plans
# ---------------------------------------------------------------------------


class _Step:
    """One body assignment, preprocessed."""

    __slots__ = ("stmt", "sid", "dt", "kind", "name", "stype", "rhs",
                 "red_op", "red_expr", "lhs_forms", "row_form",
                 "region_key", "repl")

    def __init__(self, stmt: AssignStmt, dt: float):
        self.stmt = stmt
        self.sid = stmt.stmt_id
        self.dt = dt
        self.name = stmt.lhs.symbol.name
        self.stype = stmt.lhs.symbol.type
        self.rhs = stmt.rhs
        self.red_op = None
        self.red_expr = None
        self.lhs_forms = None
        self.row_form = None
        self.region_key = None
        self.repl = False


def _check_form_resolvable(form, loop_vars: tuple[str, ...],
                           scalar_deps: set | None = None) -> None:
    """Subscript/position forms may reference only the vectorized loop
    vars, other (env-resolved) loop variables, and symbolic constants.
    A per-rank memory scalar is allowed only when the caller passes
    ``scalar_deps`` — its name is recorded and the *prepare* phase
    resolves one agreed value across the participants (bailing when the
    copies diverge or are invalid); without that set, it bails here."""
    for sym, _c in form.coeffs:
        if sym.value is not None:
            continue
        if sym.name in loop_vars:
            continue
        if sym.is_loop_var:
            continue  # resolved from env at run time (bail if absent)
        if scalar_deps is not None:
            scalar_deps.add(sym.name)
            continue
        raise _Bail(f"subscript depends on scalar {sym.name}")


def _afold_operand(rhs, name: str, canon: tuple, op: str):
    """``A(c) = A(c) OP e`` / ``A(c) = MAX(A(c), e)`` → ``e`` (both
    orderings), where the accumulator reference matches the store's
    canonical subscript form exactly; None otherwise.  ``e`` must not
    touch the accumulator array at all."""

    def is_acc(e):
        if not isinstance(e, ArrayElemRef) or e.symbol.name != name:
            return False
        forms = [affine_form(s) for s in e.subscripts]
        if any(f is None for f in forms):
            return False
        return tuple(_canon_form(f) for f in forms) == canon

    e = None
    if op in ("+", "*") and isinstance(rhs, BinOp) and rhs.op == op:
        if is_acc(rhs.left):
            e = rhs.right
        elif is_acc(rhs.right):
            e = rhs.left
    elif (
        op in ("MAX", "MIN")
        and isinstance(rhs, IntrinsicCall)
        and rhs.name == op
        and len(rhs.args) == 2
    ):
        if is_acc(rhs.args[0]):
            e = rhs.args[1]
        elif is_acc(rhs.args[1]):
            e = rhs.args[0]
    if e is None:
        return None
    for ref in e.refs():
        if isinstance(ref, ArrayElemRef) and ref.symbol.name == name:
            return None  # acc on both sides: not a fold
    return e


def _lane_index(off, n: int) -> tuple:
    """Per-dimension offsets (ints or lane vectors) as ``n``-lane index
    vectors."""
    return tuple(
        np.broadcast_to(np.asarray(o, dtype=np.int64), (n,)) for o in off
    )


def _lane_offsets(ref_forms: dict, vars_of: Callable, env) -> dict:
    """ref_id -> bounds-checked lane offsets, one per dimension.
    ``vars_of(ref_id)`` gives the lane vectors of the ref's loop
    variables; dimensions subscripted by one form over the same lanes
    and bounds — whatever the array — share one vector."""
    shared: dict[tuple, Any] = {}
    offs: dict[int, tuple] = {}
    for ref_id, (symbol, forms) in ref_forms.items():
        vec_vars = vars_of(ref_id)
        off = []
        for d, f in enumerate(forms):
            key = (id(vec_vars), _canon_form(f), symbol.dims[d])
            if key not in shared:
                shared[key] = _bounds_checked_offset(
                    _affine_vec(f, vec_vars, env), symbol, d
                )
            off.append(shared[key])
        offs[ref_id] = tuple(off)
    return offs


def _check_disjoint(plan, offs: dict, n: int) -> None:
    """Several write regions, or reads of a written array matching no
    region: the classification was symbolic — verify the concrete index
    sets are disjoint, else per-iteration order matters."""
    if len(plan.regions) < 2 and not plan.disjoint_reads:
        return
    written: dict[str, np.ndarray] = {}

    def hits(ref_id) -> tuple:
        symbol, _forms = plan.ref_forms[ref_id]
        shape = tuple(symbol.extent(d) for d in range(symbol.rank))
        mask = written.get(symbol.name)
        if mask is None:
            mask = written[symbol.name] = np.zeros(shape, dtype=np.bool_)
        return mask, _lane_index(offs[ref_id], n)

    for info in plan.regions.values():
        mask, idx = hits(info.ref0)
        if mask[idx].any():
            raise _Bail("write regions overlap")
        mask[idx] = True
    for ref_id in plan.disjoint_reads:
        mask, idx = hits(ref_id)
        if mask[idx].any():
            raise _Bail("read overlaps writes across lanes")


class _Fetched(NamedTuple):
    """One rank's fetching read of one reference: a vector entry per
    distinct element, then the facts all of them share."""

    inst: np.ndarray  #: statement instance of the element's first read
    elem: np.ndarray  #: flat element index
    src: np.ndarray  #: source rank
    shaky: np.ndarray  #: the source is not the element's primary owner
    q: int  #: the read's sequence within its statement
    dst: int  #: the reading rank
    ref: ArrayElemRef
    stmt: AssignStmt
    sel: tuple  #: element offsets, one vector per dimension
    values: np.ndarray


class _FetchLog:
    """The remote reads one takeover's evaluation met, and their exact
    replay.

    The per-iteration path fetches an invalid element once per reading
    rank, at that rank's first read of it.  Evaluation records every
    such read with its place in per-iteration order — the number of the
    statement *instance* and the read's sequence within the statement —
    and takes the value from the source rank, whose copy cannot change
    during the takeover (a fetched element is never one the takeover
    writes).  :meth:`schedule` orders the fetches and peeks their
    coalescing keys, still without mutating anything, so it may bail;
    :meth:`commit` replays compute and messages in that order."""

    def __init__(self, plan):
        self.plan = plan
        self.reads: list[_Fetched] = []

    def _fetch_read(self, ref, stmt, q: int, dst: int, sel: tuple, inst):
        """Values of the elements ``sel`` that rank ``dst`` reads while
        invalid, in instances ``inst`` (ascending): the vectorized twin
        of ``FetchEngine.fetch_array``'s source lookup."""
        symbol = ref.symbol
        acc = self.plan.fast.engine.access(symbol.name)
        elem, first, back = np.unique(
            np.ravel_multi_index(sel, acc.datas[0].shape),
            return_index=True,
            return_inverse=True,
        )
        sel = tuple(o[first] for o in sel)
        try:
            owners = acc.owners(sel)
        except MappingError:
            # the per-iteration path raises the canonical error
            raise _Bail("owner lookup failed") from None
        src = np.full(elem.size, -1, dtype=np.int64)
        values = np.empty(elem.size, dtype=acc.datas[0].dtype)
        # an owner holding a valid copy, else the lowest rank that does
        for row in (*owners, *range(len(acc.valids))):
            todo = np.flatnonzero(src < 0)
            if not todo.size:
                break
            ranks = np.broadcast_to(row, src.shape)[todo]
            for r in np.unique(ranks):
                lanes = todo[ranks == r]
                lanes = lanes[acc.valids[r][tuple(o[lanes] for o in sel)]]
                src[lanes] = r
                values[lanes] = acc.datas[r][tuple(o[lanes] for o in sel)]
        if (src < 0).any():
            raise _Bail(f"no rank holds every element read of {symbol.name}")
        self.reads.append(_Fetched(
            inst[first], elem, src, src != owners[0],
            q, dst, ref, stmt, sel, values,
        ))
        return values[back]

    def schedule(self, env):
        """Order the recorded fetches as the per-iteration path issues
        them — every (rank, element) once, at its first read — and peek
        their coalescing keys.  Returns None when nothing fetched, else
        per-fetch vectors (instance, source, reader, opens-a-message)
        plus the bookkeeping of each (read, source) group and the
        coalescing keys the takeover opens."""
        reads = self.reads
        if not reads:
            return None
        plan = self.plan
        sim = plan.sim
        inst, elem, src, shaky = (
            np.concatenate(column) for column in list(zip(*reads))[:4]
        )
        arrays: dict[str, int] = {}
        q, dst, array, read = (
            np.repeat(column, [f.elem.size for f in reads])
            for column in (
                [f.q for f in reads],
                [f.dst for f in reads],
                [
                    arrays.setdefault(f.ref.symbol.name, len(arrays))
                    for f in reads
                ],
                range(len(reads)),
            )
        )
        elem += array * (int(elem.max()) + 1)
        order = np.lexsort((q, inst))
        held = dst[order] * (int(elem.max()) + 1) + elem[order]
        keep = order[np.sort(np.unique(held, return_index=True)[1])]
        inst, elem, src, shaky, dst, read = (
            a[keep] for a in (inst, elem, src, shaky, dst, read)
        )
        if shaky.any():
            # a primary owner's valid copy is the source whatever the
            # other ranks hold; any other choice can change once an
            # earlier fetcher of the same element holds it too
            elems, counts = np.unique(elem, return_counts=True)
            if np.isin(elem[shaky], elems[counts > 1]).any():
                raise _Bail("fetch source depends on fetch order")
        # what a fetch does besides charging is the same for every
        # element of one (read, source) group, whatever the order; only
        # the startup goes to the earliest fetch under each key
        nranks = len(sim.memories)
        groups = []
        opened: dict[tuple, int] = {}
        for pair, at, count in zip(
            *map(
                np.ndarray.tolist,
                np.unique(
                    read * nranks + src, return_index=True, return_counts=True
                ),
            )
        ):
            f = reads[pair // nranks]
            event_key = (f.stmt.stmt_id, f.ref.ref_id)
            meta = plan.fetch_meta.get(event_key)
            if meta is None:
                event = sim._events.get(event_key)
                if event is None:
                    # raw coalescing keys embed the full env — including
                    # the takeover variables, which tier 2 sets per
                    # iteration and we do not
                    raise _Bail("fetch without a placed event")
                meta = (event.ordinal, hoisted_loop_vars(event, f.stmt))
                if set(meta[1]) & set(plan.lane_vars):
                    raise _Bail("fetch key varies per lane")
                plan.fetch_meta[event_key] = meta
            ordinal, outer = meta
            key = (
                "evt", ordinal, pair % nranks, f.dst,
                tuple(env.get(nm, 0) for nm in outer),
            )
            opened[key] = min(opened.get(key, at), at)
            groups.append((event_key, f.dst, f.ref.symbol.name, count))
        fresh = [key for key in opened if key not in sim._fetch_keys_seen]
        startup = np.zeros(inst.size, dtype=np.bool_)
        startup[[opened[key] for key in fresh]] = True
        return inst, src, dst, startup, groups, fresh

    def commit(self, sched, dts: np.ndarray, tapes: dict) -> int:
        """Replay compute and messages in per-iteration order; returns
        the number of elements fetched.

        ``dts`` is the charge tape of the takeover's statements and
        ``tapes[r]`` the ``(step, inst)`` vectors of rank ``r``: which
        statement each of its instances runs and the instance's
        (ascending) number.  Compute charges on different ranks commute
        and only a message couples two clocks, so a rank's tape stays
        pending until just before a message that touches the rank,
        where it is left-folded up to the message's instance — tier 2's
        interleaved ``charge_compute`` / ``charge_message_amortized``
        sequence, bit for bit.  ``compute_time`` sees no messages and
        is folded in one piece.  Everything else a fetch does is
        batched per group."""
        inst, src, dst, startup, groups, fresh = sched
        sim = self.plan.sim
        clocks, stats, memories = sim.clocks, sim.stats, sim.memories
        time = clocks.time
        # how much of the reader's and the source's tapes precedes each
        # fetch (a rank that computes nothing here has none)
        cut = np.zeros((2, inst.size), dtype=np.int64)
        for r, (step, at) in tapes.items():
            clocks.compute_time[r] = sequential_sum(
                clocks.compute_time[r], dts[step]
            )
            for side, rank in enumerate((dst, src)):
                cut[side, rank == r] = np.searchsorted(at, inst[rank == r])
        done = [0] * len(time)
        for d, s, cut_d, cut_s, new in zip(
            dst.tolist(), src.tolist(), *cut.tolist(), startup.tolist()
        ):
            for r, upto in ((d, cut_d), (s, cut_s)):
                if upto > done[r]:
                    time[r] = sequential_sum(
                        time[r], dts[tapes[r][0][done[r]:upto]]
                    )
                    done[r] = upto
            clocks.charge_message_amortized(s, d, 1, new)
        for r, (step, _at) in tapes.items():
            time[r] = sequential_sum(time[r], dts[step[done[r]:]])
        sim._fetch_keys_seen.update(fresh)
        stats.messages += len(fresh)
        for event_key, reader, name, count in groups:
            stats.record_fetch_batch(event_key, count)
            memories[reader].versions[name] += count
        for f in self.reads:
            memory = memories[f.dst]
            memory.arrays[f.ref.symbol.name][f.sel] = f.values
            memory.valid[f.ref.symbol.name][f.sel] = True
        return inst.size


class _InnerCtx(_Ctx):
    """Per-rank lane evaluation of one inner-loop takeover."""

    def __init__(self, plan: "InnerPlan", rank: int, iv: np.ndarray,
                 env, n: int, offs: dict, log: _FetchLog):
        self.plan = plan
        self.rank = rank
        self.log = log
        self.memory = plan.sim.memories[rank]
        self.iv = iv
        self._env = env
        self.n = n
        self.offs = offs
        self.scalar_shadow: dict[str, np.ndarray] = {}
        self.scalar_killed: set[str] = set()
        #: write-region key -> shadow lane vector
        self.array_shadow: dict[tuple, np.ndarray] = {}
        self.array_killed: set[tuple] = set()
        self.red_results: dict[str, Any] = {}
        self.afold_results: dict[int, Any] = {}  # step index -> folded
        self.tape: list[float] = []
        self.cur_k = 0
        self.cur_stmt = None
        self.q = 0

    def loop_vec(self, name: str):
        return self.iv if name == self.plan.v else None

    @property
    def env(self):
        return self._env

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self._env:  # mirrors the fetching reader
            v = self._env[name]
            return v, isinstance(v, int)
        vec = self.scalar_shadow.get(name)
        if vec is not None:
            return vec, vec.dtype.kind in "bi"
        if (
            name in self.scalar_killed
            or name in self.plan.written_scalars
            or name in self.plan.acc_names
        ):
            # invalidated mid-loop on this rank, or read before the
            # first in-body write (a cross-iteration carried value)
            raise _Bail(f"scalar {name} not vectorizable here")
        memory = self.memory
        if not memory.scalar_is_valid(name):
            raise _Bail(f"scalar {name} read would fetch")
        v = memory.scalars[name]
        return v, isinstance(v, int)

    def read_array(self, ref: ArrayElemRef):
        name = ref.symbol.name
        rk = self.plan.read_region.get(ref.ref_id)
        if rk is not None:
            vec = self.array_shadow.get(rk)
            if vec is not None:
                return vec, vec.dtype.kind in "bi"
            if rk in self.array_killed:
                raise _Bail(f"array {name} invalidated mid-loop here")
            # read before this iteration's write: pre-state (injective
            # subscripts mean no other iteration has touched the lane)
        off = self.offs[ref.ref_id]
        memory = self.memory
        self.q += 1
        data = memory.arrays[name][off]
        ok = memory.valid[name][off]
        if not bool(np.all(ok)):
            if rk is not None:
                raise _Bail(f"written array {name} read would fetch")
            # unwritten arrays — and reads prepare has proven disjoint
            # from every write region — may fetch like any cold read;
            # instance = (lane, step): every step runs on this rank
            n = self.n
            bad = np.flatnonzero(~np.broadcast_to(ok, (n,)))
            data = np.broadcast_to(data, (n,)).copy()
            data[bad] = self.log._fetch_read(
                ref, self.cur_stmt, self.q, self.rank,
                tuple(o[bad] for o in _lane_index(off, n)),
                bad * len(self.plan.steps) + self.cur_k,
            )
        return data, data.dtype.kind in "bi"

    def process(self, st: _Step, executes: bool, k: int = 0) -> None:
        if not executes:
            # this rank's copy is invalidated by the executing ranks
            if st.kind == "array":
                self.array_shadow.pop(st.region_key, None)
                self.array_killed.add(st.region_key)
            elif st.kind == "scalar":
                self.scalar_shadow.pop(st.name, None)
                self.scalar_killed.add(st.name)
            return  # reductions/folds: private copies stay untouched
        self.cur_k = k
        self.cur_stmt = st.stmt
        self.q = 0
        if st.kind in ("afold", "sfold"):
            off = self.offs[st.stmt.lhs.ref_id]
            memory = self.memory
            if not bool(memory.valid[st.name][off]):
                raise _Bail("fold accumulator invalid")
            start = memory.arrays[st.name][off]
            value, is_int = _eval(st.red_expr, self)
            self.afold_results[k] = _fold_lanes(
                st.red_op, start, value, is_int, st.stype, self.n
            )
            self.tape.append(st.dt)
            return
        if st.kind == "reduction":
            acc = st.name
            start = self.red_results.get(acc)
            if start is None:
                if not self.memory.scalar_is_valid(acc):
                    raise _Bail("reduction accumulator invalid")
                start = self.memory.scalars[acc]
            value, is_int = _eval(st.red_expr, self)
            self.red_results[acc] = _fold_lanes(
                st.red_op, start, value, is_int, st.stype, self.n
            )
            self.tape.append(st.dt)
            return
        value, is_int = _eval(st.rhs, self)
        vec = _coerce_vec(value, is_int, st.stype, self.n)
        if st.kind == "array":
            self.array_shadow[st.region_key] = vec
            self.array_killed.discard(st.region_key)
        else:
            self.scalar_shadow[st.name] = vec
            self.scalar_killed.discard(st.name)
        self.tape.append(st.dt)


class _WrittenArray:
    """One write *region* of an array: all stores sharing a canonical
    subscript form.  An array written under several distinct forms gets
    several regions; *prepare* verifies the concrete index sets are
    pairwise disjoint (else it bails to tier 2)."""

    __slots__ = ("symbol", "forms", "canon", "write_steps", "ref0")

    def __init__(self, symbol, forms, canon, ref0):
        self.symbol = symbol
        self.forms = forms
        self.canon = canon
        self.write_steps: list[int] = []
        self.ref0 = ref0  # a representative lhs ref_id for offsets


class InnerPlan:
    """Vectorized execution of one innermost loop: every iteration is a
    lane; each participating rank evaluates its statements over the
    whole lane vector, then commits stores, invalidations, and charge
    tapes.  Any condition the per-iteration path would have handled
    differently (invalid reads → fetches, bounds errors, non-affine
    values) raises :class:`_Bail` before anything is mutated."""

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        sim = slab.sim
        fast = slab.fast
        self.sim = sim
        self.fast = fast
        self.loop = loop
        self.v = loop.var.name
        self.lane_vars = (self.v,)
        #: (stmt_id, ref_id) -> (event ordinal, hoisted loop vars)
        self.fetch_meta: dict[tuple, tuple] = {}
        self.steps: list[_Step] = []
        #: (name, canon) -> write region
        self.regions: dict[tuple, _WrittenArray] = {}
        #: name -> region keys of that array
        self.written_arrays: dict[str, list[tuple]] = {}
        #: read ref_id -> region key, for reads matching a write region
        self.read_region: dict[int, tuple] = {}
        #: read ref_ids of written arrays with *no* matching region:
        #: concretely checked disjoint from every write at prepare
        self.disjoint_reads: list[int] = []
        self.written_scalars: dict[str, int] = {}  # name -> last writer
        self.acc_names: set[str] = set()
        #: array name -> step index of its fold (reduction into a fixed
        #: element, e.g. ``AMD(k) = MAX(AMD(k), ...)``)
        self.afold_arrays: dict[str, int] = {}
        #: memory scalars subscripts depend on, resolved at prepare
        self.subscript_scalars: set[str] = set()
        self.ref_forms: dict[int, tuple] = {}  # ref_id -> (symbol, forms)
        red_exprs: list = []
        for stmt in loop.body:
            if isinstance(stmt, ContinueStmt):
                continue
            if not isinstance(stmt, AssignStmt):
                raise _Bail("non-assign in body")
            dt = fast._dt.get(stmt.stmt_id)
            if dt is None:
                raise _Bail("statement not lowered")
            st = _Step(stmt, dt)
            k = len(self.steps)
            red = sim._reduction_updates.get(stmt.stmt_id)
            if red is not None:
                reduction, _mapping = red
                if (
                    reduction.location_symbol is None
                    and reduction.op in _RED_UFUNC
                    and isinstance(stmt.lhs, ArrayElemRef)
                    and reduction.symbol.name == st.name
                ):
                    # fold into one array element: the subscripts must
                    # be loop-invariant, so every lane hits the same
                    # private accumulator element
                    forms = [affine_form(s) for s in stmt.lhs.subscripts]
                    if any(f is None for f in forms):
                        raise _Bail("non-affine fold subscript")
                    for f in forms:
                        _check_form_resolvable(
                            f, (self.v,), self.subscript_scalars
                        )
                        if any(
                            sym.name == self.v and sym.value is None
                            for sym in _form_symbols(f)
                        ):
                            raise _Bail("fold subscript varies with lane")
                    canon = tuple(_canon_form(f) for f in forms)
                    e = _afold_operand(stmt.rhs, st.name, canon, reduction.op)
                    if e is None:
                        raise _Bail("unrecognized array fold update")
                    st.kind = "afold"
                    st.red_op = reduction.op
                    st.red_expr = e
                    if st.name in self.afold_arrays:
                        raise _Bail("array folded twice")
                    self.afold_arrays[st.name] = k
                    self.ref_forms[stmt.lhs.ref_id] = (stmt.lhs.symbol, forms)
                    red_exprs.append(e)
                    self.steps.append(st)
                    continue
                if (
                    not isinstance(stmt.lhs, ScalarRef)
                    or reduction.location_symbol is not None
                    or reduction.op not in _RED_UFUNC
                    or reduction.symbol.name != st.name
                ):
                    raise _Bail("unsupported reduction form")
                e = _reduction_operand(stmt.rhs, st.name, reduction.op)
                if e is None:
                    raise _Bail("unrecognized reduction update")
                st.kind = "reduction"
                st.red_op = reduction.op
                st.red_expr = e
                self.acc_names.add(st.name)
                red_exprs.append(e)
            elif isinstance(stmt.lhs, ArrayElemRef):
                st.kind = "array"
                forms = [affine_form(s) for s in stmt.lhs.subscripts]
                if any(f is None for f in forms):
                    raise _Bail("non-affine store subscript")
                for f in forms:
                    _check_form_resolvable(
                        f, (self.v,), self.subscript_scalars
                    )
                canon = tuple(_canon_form(f) for f in forms)
                key = (st.name, canon)
                info = self.regions.get(key)
                if info is None:
                    if not any(
                        f.coeff(sym) != 0
                        for f in forms
                        for sym in f.symbols
                        if sym.name == self.v and sym.value is None
                    ):
                        # every lane stores the same element: only a
                        # serial fold (``A(c) = A(c) OP e``, the
                        # reduction-into-column shape the reduction
                        # pass left as a plain owner-computes assign)
                        # has per-iteration semantics a slab can replay
                        e = op = None
                        for cand in ("+", "*", "MAX", "MIN"):
                            e = _afold_operand(stmt.rhs, st.name, canon, cand)
                            if e is not None:
                                op = cand
                                break
                        if e is None:
                            raise _Bail("store not injective in the loop var")
                        st.kind = "sfold"
                        st.red_op = op
                        st.red_expr = e
                        if st.name in self.afold_arrays:
                            raise _Bail("array folded twice")
                        self.afold_arrays[st.name] = k
                        self.ref_forms[stmt.lhs.ref_id] = (
                            stmt.lhs.symbol, forms
                        )
                        self.steps.append(st)
                        continue
                    info = _WrittenArray(
                        stmt.lhs.symbol, forms, canon, stmt.lhs.ref_id
                    )
                    self.regions[key] = info
                    self.written_arrays.setdefault(st.name, []).append(key)
                info.write_steps.append(k)
                st.region_key = key
                self.ref_forms[stmt.lhs.ref_id] = (stmt.lhs.symbol, forms)
            else:
                st.kind = "scalar"
                self.written_scalars[st.name] = k
            self.steps.append(st)
        if not self.steps:
            raise _Bail("empty body")
        # rhs reads: affine forms everywhere; a read of an in-body
        # written array either matches a write region exactly (lane for
        # lane) or must be concretely disjoint from all of them —
        # deferred to prepare, where the indices are known
        for st in self.steps:
            expr = st.red_expr if st.kind in ("reduction", "afold", "sfold") else st.rhs
            for ref in expr.refs():
                if not isinstance(ref, ArrayElemRef):
                    continue
                name = ref.symbol.name
                if name in self.afold_arrays:
                    raise _Bail("fold array read outside its fold")
                forms = [affine_form(s) for s in ref.subscripts]
                if any(f is None for f in forms):
                    raise _Bail("non-affine read subscript")
                for f in forms:
                    _check_form_resolvable(
                        f, (self.v,), self.subscript_scalars
                    )
                if name in self.written_arrays:
                    canon = tuple(_canon_form(f) for f in forms)
                    key = (name, canon)
                    if key in self.regions:
                        self.read_region[ref.ref_id] = key
                    else:
                        self.disjoint_reads.append(ref.ref_id)
                self.ref_forms[ref.ref_id] = (ref.symbol, forms)
        if set(self.afold_arrays) & set(self.written_arrays):
            raise _Bail("array both folded and written")
        # accumulators must not leak into any other statement
        for st in self.steps:
            for name in self.acc_names:
                if st.kind == "reduction" and st.name == name:
                    continue
                if st.kind != "reduction" and st.name == name:
                    raise _Bail("accumulator written outside the fold")
                expr = (
                    st.red_expr
                    if st.kind in ("reduction", "afold", "sfold")
                    else st.rhs
                )
                for ref in expr.refs():
                    if isinstance(ref, ScalarRef) and ref.symbol.name == name:
                        raise _Bail("accumulator read outside the fold")
        # executor positions must not depend on anything the body writes
        mutated = set(self.written_scalars) | self.acc_names
        if self.subscript_scalars & mutated:
            raise _Bail("subscript depends on a scalar written in body")
        for st in self.steps:
            info = sim.compiled.executors.get(st.sid)
            if info is None:
                raise _Bail("no executor info")
            for dim in info.position:
                if dim.kind == "pos" and dim.form is not None:
                    for sym in dim.form.symbols:
                        if sym.value is None and (
                            sym.name == self.v or sym.name in mutated
                        ):
                            raise _Bail("executor varies inside the loop")

    # ------------------------------------------------------------------

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        n = slab_trip_count(low, high, step)
        sim = self.sim
        if n == 0:
            return lambda: None
        steps = self.steps
        rank_sets: list[list[int]] = []
        exec_sets: list[set] = []
        for st in steps:
            ranks = sim.executor_ranks(st.stmt, env)
            if not ranks:
                raise _Bail("empty executor set")
            rank_sets.append(ranks)
            exec_sets.append(set(ranks))
        for info in self.regions.values():
            first = exec_sets[info.write_steps[0]]
            for k in info.write_steps[1:]:
                if exec_sets[k] != first:
                    raise _Bail("array writers differ in executor set")
        participants = sorted(set().union(*exec_sets))
        sub_env = env
        if self.subscript_scalars:
            # subscripts referencing memory scalars: every participant
            # must hold the same valid integral value (per-iteration
            # semantics read the rank's own copy each time)
            sub_env = dict(env)
            for nm in sorted(self.subscript_scalars):
                if nm in env:
                    continue
                val = _MISSING
                for r in participants:
                    memory = sim.memories[r]
                    if not memory.scalar_is_valid(nm):
                        raise _Bail(f"subscript scalar {nm} invalid")
                    got = memory.scalars[nm]
                    if val is _MISSING:
                        val = got
                    elif got != val:
                        raise _Bail(f"subscript scalar {nm} diverges")
                if not float(val).is_integer():
                    raise _Bail(f"subscript scalar {nm} not integral")
                sub_env[nm] = int(val)
        iv = low + step * np.arange(n, dtype=np.int64)
        vec_vars = {self.v: iv}
        offs = _lane_offsets(self.ref_forms, lambda _ref: vec_vars, sub_env)
        _check_disjoint(self, offs, n)
        log = _FetchLog(self)
        ctxs: dict[int, _InnerCtx] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for r in participants:
                ctx = _InnerCtx(self, r, iv, env, n, offs, log)
                for k, st in enumerate(steps):
                    ctx.process(st, r in exec_sets[k], k)
                ctxs[r] = ctx
        if log.reads and len(participants) != 1:
            # instance numbers here assume one rank runs every step
            raise _Bail("fetching takeover with multiple executors")
        fetch_plan = log.schedule(env)

        def commit():
            memories = sim.memories
            clocks = sim.clocks
            fetched = 0
            if fetch_plan is not None:
                # one rank runs every step of every lane, in order
                fetched = log.commit(
                    fetch_plan,
                    clocks.tape(ctxs[participants[0]].tape),
                    {participants[0]: (
                        np.tile(np.arange(len(steps)), n),
                        np.arange(n * len(steps)),
                    )},
                )
            else:
                for r in participants:
                    clocks.charge_compute_tape(
                        r, clocks.tile(clocks.tape(ctxs[r].tape), n)
                    )
            for key, info in self.regions.items():
                name = key[0]
                w_ranks = rank_sets[info.write_steps[0]]
                wset = exec_sets[info.write_steps[0]]
                off = offs[info.ref0]
                bump = n * len(info.write_steps)
                for r in w_ranks:
                    memory = memories[r]
                    memory.arrays[name][off] = ctxs[r].array_shadow[key]
                    memory.valid[name][off] = True
                    memory.versions[name] += bump
                if len(w_ranks) < len(memories):
                    for r2, memory in enumerate(memories):
                        if r2 not in wset:
                            memory.valid[name][off] = False
                            memory.versions[name] += bump
            for name, last_k in self.written_scalars.items():
                ranks = rank_sets[last_k]
                rset = exec_sets[last_k]
                for r in ranks:
                    memories[r].scalar_store(
                        name, ctxs[r].scalar_shadow[name][-1].item()
                    )
                if len(ranks) < len(memories):
                    for r2, memory in enumerate(memories):
                        if r2 not in rset:
                            memory.scalar_invalidate(name)
            for k, st in enumerate(steps):
                if st.kind == "reduction":
                    for r in rank_sets[k]:
                        memories[r].scalar_store(
                            st.name, ctxs[r].red_results[st.name].item()
                        )
                elif st.kind in ("afold", "sfold"):
                    off = offs[st.stmt.lhs.ref_id]
                    for r in rank_sets[k]:
                        memory = memories[r]
                        memory.arrays[st.name][off] = (
                            ctxs[r].afold_results[k].item()
                        )
                        memory.valid[st.name][off] = True
                        memory.versions[st.name] += n
                    # afold accumulates privately: non-executors keep
                    # their copies, exactly like scalar reductions.  An
                    # sfold is a plain owner-computes store, just
                    # serialized: it invalidates them once per iteration
                    if st.kind == "sfold":
                        for r2, memory in enumerate(memories):
                            if r2 not in exec_sets[k]:
                                memory.valid[st.name][off] = False
                                memory.versions[st.name] += n
            sim.slab_instances += n * len(steps)
            return fetched

        return commit


def _set_owner_position(plan, steps) -> None:
    """Fix the plan's executor position: the canonical owner position
    of ``steps`` — identical across them; replicated statements run on
    every rank and carry none — as ``pos_form``/``pos_fmt``, with
    ``pos_ranks`` tabulating the executing rank of every template
    position of that (1-D grid) format."""
    sim = plan.sim
    canon = _MISSING
    for st in steps:
        if st.repl:
            continue
        info = sim.compiled.executors.get(st.sid)
        if info is None or info.kind != "owner" or len(info.position) != 1:
            raise _Bail("executor is not a 1-D owner position")
        dim = info.position[0]
        if dim.kind != "pos" or dim.form is None or dim.fmt is None:
            raise _Bail("executor position is not a point")
        c = _canon_form(dim.form)
        if canon is _MISSING:
            canon = c
            plan.pos_form, plan.pos_fmt = dim.form, dim.fmt
        elif c != canon:
            raise _Bail("executor position differs across statements")
    if canon is _MISSING:
        raise _Bail("no owner-positioned statement")
    rank_of = np.asarray(
        [sim.grid.rank_of((c,)) for c in range(sim.grid.shape[0])],
        dtype=np.int64,
    )
    plan.pos_ranks = rank_of[
        np.asarray(plan.fast.etables.owner_table(plan.pos_fmt), dtype=np.int64)
    ]


def _exec_columns(plan, jvec: np.ndarray, env) -> tuple:
    """Executing rank and rank -> columns map of the outer iterations
    ``jvec`` of a column-style plan."""
    pos = np.asarray(
        _affine_vec(plan.pos_form, {plan.j: jvec}, env), dtype=np.int64
    )
    if pos.ndim == 0:
        pos = np.full(jvec.size, int(pos), dtype=np.int64)
    if int(pos.min()) < 0 or int(pos.max()) >= plan.pos_fmt.extent:
        raise _Bail("executor position out of range")
    exec_col = plan.pos_ranks[pos]
    cols_of = {
        int(r): np.nonzero(exec_col == r)[0] for r in np.unique(exec_col)
    }
    return exec_col, cols_of


class _ColCtx(_Ctx):
    """Column-lane evaluation: one lane per outer-loop iteration
    (column), statements processed in sequential order with the inner
    loop unrolled step by step — exact because each column reads and
    writes only its own data (checked statically)."""

    def __init__(self, plan: "ColumnPlan", jvec: np.ndarray, env,
                 exec_col: np.ndarray, cols_of: dict[int, np.ndarray]):
        self.plan = plan
        self.jvec = jvec
        self._env = env
        self.nj = jvec.size
        self.exec_col = exec_col
        self.cols_of = cols_of
        self._i: int | None = None
        self.tables: dict[str, tuple] = {}
        self.scalar_shadow: dict[str, np.ndarray] = {}
        self.scalar_cache: dict[str, tuple] = {}

    def loop_vec(self, name: str):
        if name == self.plan.j:
            return self.jvec
        if name == self.plan.i and self._i is not None:
            return self._i
        return None

    @property
    def env(self):
        return self._env

    def _array(self, name: str) -> tuple:
        t = self.tables.get(name)
        if t is None:
            plan = self.plan
            symbol = plan.array_symbols[name]
            jdim = plan.jdims[name]
            jlow, jhigh = symbol.dims[jdim]
            if int(self.jvec.min()) < jlow or int(self.jvec.max()) > jhigh:
                raise _Bail(f"column index out of bounds for {name}")
            joff = self.jvec - jlow
            other = symbol.extent(1 - jdim)
            memories = plan.sim.memories
            dtype = memories[0].array_dtype(name)
            w = np.empty((other, self.nj), dtype=dtype)
            v = np.empty((other, self.nj), dtype=np.bool_)
            for r, cols in self.cols_of.items():
                data = memories[r].arrays[name]
                valid = memories[r].valid[name]
                jsel = joff[cols]
                if jdim == 1:
                    w[:, cols] = data[:, jsel]
                    v[:, cols] = valid[:, jsel]
                else:
                    w[:, cols] = data[jsel, :].T
                    v[:, cols] = valid[jsel, :].T
            t = (w, v, np.zeros((other, self.nj), dtype=np.bool_), joff)
            self.tables[name] = t
        return t

    def _row(self, ref: ArrayElemRef) -> int:
        plan = self.plan
        jdim = plan.jdims[ref.symbol.name]
        form = plan.row_form_of(ref, 1 - jdim)
        vec_vars = {} if self._i is None else {plan.i: self._i}
        idx = _affine_vec(form, vec_vars, self._env)
        if isinstance(idx, np.ndarray):
            raise _Bail("row subscript not scalar")
        return _bounds_checked_offset(int(idx), ref.symbol, 1 - jdim)

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self._env:
            v = self._env[name]
            return v, isinstance(v, int)
        vec = self.scalar_shadow.get(name)
        if vec is not None:
            return vec, vec.dtype.kind in "bi"
        if name in self.plan.written_scalars:
            # read before the first in-column write: the value would
            # flow across columns
            raise _Bail(f"scalar {name} read before its definition")
        cached = self.scalar_cache.get(name)
        if cached is not None:
            return cached
        memories = self.plan.sim.memories
        values = {}
        for r in self.cols_of:
            if not memories[r].scalar_is_valid(name):
                raise _Bail(f"scalar {name} read would fetch")
            values[r] = memories[r].scalars[name]
        kinds = {isinstance(v, int) for v in values.values()}
        if len(kinds) != 1:
            raise _Bail(f"scalar {name} mixes types across ranks")
        is_int = kinds.pop()
        vec = np.empty(self.nj, dtype=np.int64 if is_int else np.float64)
        for r, cols in self.cols_of.items():
            vec[cols] = values[r]
        result = (vec, is_int)
        self.scalar_cache[name] = result
        return result

    def read_array(self, ref: ArrayElemRef):
        w, v, written, _joff = self._array(ref.symbol.name)
        row = self._row(ref)
        if not bool((v[row] | written[row]).all()):
            raise _Bail(f"array {ref.symbol.name} read would fetch")
        data = w[row].copy()
        return data, data.dtype.kind in "bi"

    def process(self, st: _Step) -> None:
        value, is_int = _eval(st.rhs, self)
        vec = _coerce_vec(value, is_int, st.stype, self.nj)
        if st.kind == "array":
            w, _v, written, _joff = self._array(st.name)
            row = self._row(st.stmt.lhs)
            w[row] = vec
            written[row] = True
        else:
            self.scalar_shadow[st.name] = vec
            self.scalar_cache.pop(st.name, None)


class ColumnPlan:
    """Column-wise execution of an outer loop wrapping one sequential
    inner loop: the outer iterations (columns) are the lanes; the inner
    loop runs step by step with each statement vectorized across all
    columns at once.  Exact because every array reference touches only
    its own column and every statement executes on that column's owner
    (both checked statically), so the columns evolve independently in
    program order."""

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        sim = slab.sim
        fast = slab.fast
        self.sim = sim
        self.fast = fast
        self.loop = loop
        self.j = loop.var.name
        if sim.grid.rank != 1:
            raise _Bail("grid is not one-dimensional")

        def make_step(stmt) -> _Step:
            dt = fast._dt.get(stmt.stmt_id)
            if dt is None:
                raise _Bail("statement not lowered")
            if stmt.stmt_id in sim._reduction_updates:
                raise _Bail("reduction update in body")
            st = _Step(stmt, dt)
            st.kind = "array" if isinstance(stmt.lhs, ArrayElemRef) else "scalar"
            return st

        nest = _split_nest(loop)
        if isinstance(nest, str):
            raise _Bail(nest)
        inner = nest[0]
        if inner.stmt_id in sim._reductions_by_loop:
            raise _Bail("inner loop combines a reduction")
        self.inner = inner
        self.i = inner.var.name
        pre, body, post = (
            [make_step(stmt) for stmt in stmts] for stmts in nest[1:]
        )
        self.pre, self.body, self.post = pre, body, post
        all_steps = pre + body + post
        if not all_steps:
            raise _Bail("empty body")
        _set_owner_position(self, all_steps)
        # written names; column discipline per array
        self.written_scalars: set[str] = set()
        self.written_arrays: set[str] = set()
        self.jdims: dict[str, int] = {}
        self.array_symbols: dict[str, Any] = {}
        self._row_forms: dict[int, Any] = {}
        for st in all_steps:
            if st.kind == "scalar":
                self.written_scalars.add(st.name)
            else:
                self.written_arrays.add(st.name)
            refs = [st.stmt.lhs] if st.kind == "array" else []
            refs.extend(
                r for r in st.rhs.refs() if isinstance(r, ArrayElemRef)
            )
            for ref in refs:
                self._register_ref(ref)
        # the executor position may only depend on j (and constants)
        for sym, _c in self.pos_form.coeffs:
            if sym.value is None and sym.name != self.j:
                if not sym.is_loop_var or sym.name in self.written_scalars:
                    raise _Bail("executor position not a column function")
        # inner bounds must not change during the takeover
        for bound in (inner.low, inner.high, inner.step):
            if bound is None:
                continue
            for ref in bound.refs():
                if isinstance(ref, ScalarRef) and (
                    ref.symbol.name in (self.j, self.i)
                    or ref.symbol.name in self.written_scalars
                ):
                    raise _Bail("inner bounds vary during the takeover")

    def _register_ref(self, ref: ArrayElemRef) -> None:
        name = ref.symbol.name
        if len(ref.subscripts) != 2:
            raise _Bail("only rank-2 arrays supported column-wise")
        forms = [affine_form(s) for s in ref.subscripts]
        if any(f is None for f in forms):
            raise _Bail("non-affine subscript")
        jdim = None
        for d, f in enumerate(forms):
            c = _canon_form(f)
            if c == (0, ((self.j, 1),)):
                if jdim is not None:
                    raise _Bail("two column dimensions")
                jdim = d
            elif any(nm == self.j for nm, _ in c[1]):
                raise _Bail("mixed column subscript")
        if jdim is None:
            raise _Bail(f"{name}: reference has no column dimension")
        if self.jdims.setdefault(name, jdim) != jdim:
            raise _Bail(f"{name}: inconsistent column dimension")
        self.array_symbols.setdefault(name, ref.symbol)
        row = forms[1 - jdim]
        for sym, _c in row.coeffs:
            if sym.value is not None:
                continue
            if sym.name == self.i:
                continue
            if sym.is_loop_var and sym.name != self.j:
                continue  # env-resolved outer index
            raise _Bail(f"row subscript depends on scalar {sym.name}")
        self._row_forms[ref.ref_id] = row

    def row_form_of(self, ref: ArrayElemRef, row_dim: int):
        form = self._row_forms.get(ref.ref_id)
        if form is None:
            raise _Bail("unregistered reference")
        return form

    # ------------------------------------------------------------------

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        nj = slab_trip_count(low, high, step)
        sim = self.sim
        if nj == 0:
            return lambda: None
        jvec = low + step * np.arange(nj, dtype=np.int64)
        exec_col, cols_of = _exec_columns(self, jvec, env)
        # inner bounds: evaluated once (checked invariant), uncharged,
        # exactly like the per-iteration walker's eval_bound
        try:
            li = self.fast.eval_bound(self.inner.low, env)
            hi = self.fast.eval_bound(self.inner.high, env)
            si = (
                self.fast.eval_bound(self.inner.step, env)
                if self.inner.step is not None
                else 1
            )
        except _BOUND_ERRORS:
            raise _Bail("inner bounds not evaluable") from None
        if si == 0:
            raise _Bail("zero inner step")
        nsteps = slab_trip_count(li, hi, si)
        ctx = _ColCtx(self, jvec, env, exec_col, cols_of)
        with np.errstate(over="ignore", invalid="ignore"):
            for st in self.pre:
                ctx.process(st)
            for t in range(nsteps):
                ctx._i = li + t * si
                for st in self.body:
                    ctx.process(st)
            ctx._i = None
            for st in self.post:
                ctx.process(st)

        def commit():
            memories = sim.memories
            clocks = sim.clocks
            seq = clocks.cat([
                clocks.tape([st.dt for st in self.pre]),
                clocks.tile(
                    clocks.tape([st.dt for st in self.body]), nsteps
                ),
                clocks.tape([st.dt for st in self.post]),
            ])
            if seq.size:
                for r, cols in cols_of.items():
                    clocks.charge_compute_tape(r, clocks.tile(seq, cols.size))
            many = sim.grid.size > 1
            for name, (w, _v, written, joff) in ctx.tables.items():
                if not written.any():
                    continue
                jdim = self.jdims[name]
                rws, cs = np.nonzero(written)
                for r, cols in cols_of.items():
                    sel = exec_col[cs] == r
                    if not sel.any():
                        continue
                    rsel, csel = rws[sel], cs[sel]
                    memory = memories[r]
                    data, valid = memory.arrays[name], memory.valid[name]
                    if jdim == 1:
                        data[rsel, joff[csel]] = w[rsel, csel]
                        valid[rsel, joff[csel]] = True
                    else:
                        data[joff[csel], rsel] = w[rsel, csel]
                        valid[joff[csel], rsel] = True
                    memory.versions[name] += int(sel.sum())
                if many:
                    for r2, memory in enumerate(memories):
                        sel = exec_col[cs] != r2
                        if not sel.any():
                            continue
                        rsel, csel = rws[sel], cs[sel]
                        valid = memory.valid[name]
                        if jdim == 1:
                            valid[rsel, joff[csel]] = False
                        else:
                            valid[joff[csel], rsel] = False
                        memory.versions[name] += int(sel.sum())
            # every column's owner stores its own last value (the stored
            # value persists even once a later column invalidates it)
            last_rank = int(exec_col[-1])
            for name, vec in ctx.scalar_shadow.items():
                for r, cols in cols_of.items():
                    memories[r].scalar_store(name, vec[cols[-1]].item())
                if many:
                    for r2, memory in enumerate(memories):
                        if r2 != last_rank:
                            memory.scalar_invalidate(name)
            if self.i not in env:
                # the walker's per-iteration epilogue would have left
                # the inner index at its final value
                env[self.i] = li + nsteps * si
            sim.slab_instances += nj * (
                len(self.pre) + len(self.post) + nsteps * len(self.body)
            )

        return commit


class _TriCtx(_Ctx):
    """Flattened-lane evaluation of one triangular/imperfect nest: the
    prologue and epilogue run with one lane per outer iteration
    (column), the inner body with one lane per (outer, inner) instance.
    Every lane executes on its column's owner, so evaluation is global
    and per-rank state is gathered lane-wise from the executing rank —
    which fetches what it reads but does not hold."""

    #: statement phases, in execution order
    PRE, BODY, POST = 0, 1, 2

    def __init__(self, plan: "TriangularPlan", jvec, iflat, jflat,
                 widths, env, exec_col, cols_of, offs, inst0, log):
        self.plan = plan
        self.log = log
        #: phase -> instance number of each lane's first statement
        self.inst0 = inst0
        self.jvec = jvec
        self.iflat = iflat
        self.jflat = jflat
        self.widths = widths
        self._env = env
        self.exec_col = exec_col
        self.cols_of = cols_of
        self.offs = offs
        self.nj = jvec.size
        self.nflat = iflat.size
        #: owner rank of each flat (body) lane
        self.rank_flat = np.repeat(exec_col, widths)
        #: last flat lane of each column
        self.seg_end = np.cumsum(widths) - 1
        #: (rank, its lanes) of the column phases and of the body
        self.lanes_of = (
            list(cols_of.items()),
            [(r, np.flatnonzero(self.rank_flat == r)) for r in cols_of],
        )
        self.phase = self.PRE
        #: the statement being processed, its index within the phase,
        #: whether it is replicated on every rank, and its reads so far
        self.cur_stmt = None
        self.cur_k = 0
        self.cur_repl = False
        self.q = 0
        #: phase -> scalar name -> lane vector of that phase
        self.scalar_shadow: tuple[dict, dict, dict] = ({}, {}, {})
        self.scalar_cache: dict[str, tuple] = {}
        self.repl_cache: dict[str, tuple] = {}
        self.array_shadow: dict[tuple, np.ndarray] = {}

    def _lanes(self) -> int:
        return self.nflat if self.phase == self.BODY else self.nj

    def loop_vec(self, name: str):
        if self.phase == self.BODY:
            if name == self.plan.i:
                return self.iflat
            if name == self.plan.j:
                return self.jflat
        elif name == self.plan.j:
            return self.jvec
        return None

    @property
    def env(self):
        return self._env

    def _expand(self, vec: np.ndarray, from_phase: int) -> np.ndarray:
        """Carry a scalar's per-phase value forward within each column:
        prologue values repeat across the column's body lanes; body
        values reach the epilogue at each column's final lane."""
        if from_phase == self.phase:
            return vec
        if from_phase == self.PRE and self.phase == self.BODY:
            return np.repeat(vec, self.widths)
        if from_phase == self.PRE and self.phase == self.POST:
            return vec
        if from_phase == self.BODY and self.phase == self.POST:
            return vec[self.seg_end]
        raise _Bail("scalar value flows backward")

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self._env:
            v = self._env[name]
            return v, isinstance(v, int)
        wp = self.plan.scalar_phase.get(name)
        if wp is not None:
            if self.cur_repl and not self.plan.scalar_repl[name]:
                # a replicated reader runs on every rank, but an
                # owner-written scalar is only valid on each column's
                # owner — the other ranks would fetch
                raise _Bail(f"replicated read of owner scalar {name}")
            if wp > self.phase:
                raise _Bail(f"scalar {name} carried across columns")
            vec = self.scalar_shadow[wp].get(name)
            if vec is None:
                # read before the first in-column write: the value
                # would flow in from a previous column
                raise _Bail(f"scalar {name} read before its definition")
            vec = self._expand(vec, wp)
            return vec, vec.dtype.kind in "bi"
        if self.cur_repl:
            # a replicated statement evaluates on every rank with its
            # own copy: all copies must be valid and identical for one
            # vectorized evaluation to stand in for all of them
            cached = self.repl_cache.get(name)
            if cached is None:
                vals = []
                for memory in self.plan.sim.memories:
                    if not memory.scalar_is_valid(name):
                        raise _Bail(f"scalar {name} read would fetch")
                    vals.append(memory.scalars[name])
                kinds = {isinstance(v, int) for v in vals}
                if len(kinds) != 1:
                    raise _Bail(f"scalar {name} mixes types across ranks")
                if any(v != vals[0] for v in vals[1:]):
                    raise _Bail(f"scalar {name} differs across ranks")
                cached = (vals[0], kinds.pop())
                self.repl_cache[name] = cached
            return cached
        cached = self.scalar_cache.get(name)
        if cached is None:
            memories = self.plan.sim.memories
            values = {}
            for r in self.cols_of:
                if not memories[r].scalar_is_valid(name):
                    raise _Bail(f"scalar {name} read would fetch")
                values[r] = memories[r].scalars[name]
            kinds = {isinstance(v, int) for v in values.values()}
            if len(kinds) != 1:
                raise _Bail(f"scalar {name} mixes types across ranks")
            is_int = kinds.pop()
            vec = np.empty(self.nj, dtype=np.int64 if is_int else np.float64)
            for r, cols in self.cols_of.items():
                vec[cols] = values[r]
            cached = (vec, is_int)
            self.scalar_cache[name] = cached
        vec, is_int = cached
        if self.phase == self.BODY:
            vec = np.repeat(vec, self.widths)
        return vec, is_int

    def read_array(self, ref: ArrayElemRef):
        """Each lane reads its executing rank's copy.  An element
        invalid there is one the per-iteration path would fetch: logged
        and read from its source, unless the takeover itself writes the
        element's region — then it declines."""
        name = ref.symbol.name
        rk = self.plan.read_region.get(ref.ref_id)
        if rk is not None:
            vec = self.array_shadow.get(rk)
            if vec is not None:
                return vec, vec.dtype.kind in "bi"
            # read before this lane's write: pre-state (regions are
            # injective per column, columns are disjoint)
        self.q += 1
        memories = self.plan.sim.memories
        offv = _lane_index(self.offs[ref.ref_id], self._lanes())
        out = np.empty(self._lanes(), dtype=memories[0].array_dtype(name))
        for r, lanes in self.lanes_of[self.phase == self.BODY]:
            sel = tuple(o[lanes] for o in offv)
            memory = memories[r]
            out[lanes] = memory.arrays[name][sel]
            ok = memory.valid[name][sel]
            if not ok.all():
                if rk is not None:
                    raise _Bail(f"written array {name} read would fetch")
                bad = np.flatnonzero(~ok)
                out[lanes[bad]] = self.log._fetch_read(
                    ref, self.cur_stmt, self.q, r,
                    tuple(o[bad] for o in sel),
                    self.inst0[self.phase][lanes[bad]] + self.cur_k,
                )
        return out, out.dtype.kind in "bi"

    def process(self, st: _Step, k: int) -> None:
        self.cur_stmt = st.stmt
        self.cur_k = k
        self.cur_repl = st.repl
        self.q = 0
        value, is_int = _eval(st.rhs, self)
        vec = _coerce_vec(value, is_int, st.stype, self._lanes())
        if st.kind == "array":
            self.array_shadow[st.region_key] = vec
        else:
            self.scalar_shadow[self.phase][st.name] = vec


class TriangularPlan:
    """One takeover for a whole imperfect nest whose inner bounds may be
    affine in the outer variable: per-column slab widths vary with the
    outer index (triangular nests).  The outer iterations are columns
    executed on their owner rank; prologue/epilogue statements get one
    lane per column, the inner body one lane per (outer, inner)
    instance, flattened.  Exact because every store touches only its
    own column, regions are injective within it, and what a lane reads
    outside its column is never written by the takeover — such reads go
    through the lane's executing rank, fetching like tier 2
    (:class:`_FetchLog`).  Anything runtime-dependent (validity of
    written regions, bounds, widths, region and read overlap) bails to
    tier 2 before any mutation."""

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        sim = slab.sim
        fast = slab.fast
        self.sim = sim
        self.fast = fast
        self.loop = loop
        self.j = loop.var.name
        if sim.grid.rank != 1:
            raise _Bail("grid is not one-dimensional")

        def make_step(stmt) -> _Step:
            dt = fast._dt.get(stmt.stmt_id)
            if dt is None:
                raise _Bail("statement not lowered")
            if stmt.stmt_id in sim._reduction_updates:
                raise _Bail("reduction update in body")
            st = _Step(stmt, dt)
            st.kind = (
                "array" if isinstance(stmt.lhs, ArrayElemRef) else "scalar"
            )
            info = sim.compiled.executors.get(stmt.stmt_id)
            st.repl = sim._runs_everywhere(stmt) or _replicated_exec(info)
            if st.repl:
                if st.kind == "array":
                    raise _Bail("replicated statement writes an array")
                for ref in stmt.rhs.refs():
                    if isinstance(ref, ArrayElemRef):
                        raise _Bail("replicated statement reads an array")
            return st

        nest = _split_nest(loop)
        if isinstance(nest, str):
            raise _Bail(nest)
        inner = nest[0]
        if inner.stmt_id in sim._reductions_by_loop:
            raise _Bail("inner loop combines a reduction")
        self.inner = inner
        self.i = inner.var.name
        self.lane_vars = (self.j, self.i)
        #: (stmt_id, ref_id) -> (event ordinal, hoisted loop vars)
        self.fetch_meta: dict[tuple, tuple] = {}
        pre, body, post = (
            [make_step(stmt) for stmt in stmts] for stmts in nest[1:]
        )
        if not body:
            raise _Bail("empty inner body")
        self.pre, self.body, self.post = pre, body, post
        phased = [
            (st, ph)
            for ph, steps in ((0, pre), (1, body), (2, post))
            for st in steps
        ]
        _set_owner_position(self, pre + body + post)
        # written names; write regions (body only) like InnerPlan's
        self.scalar_phase: dict[str, int] = {}
        self.scalar_repl: dict[str, bool] = {}
        self.regions: dict[tuple, _WrittenArray] = {}
        self.written_arrays: dict[str, list[tuple]] = {}
        self.read_region: dict[int, tuple] = {}
        self.disjoint_reads: list[int] = []
        self.ref_forms: dict[int, tuple] = {}
        #: ref ids of the inner loop's statements (flat-lane refs)
        self.body_refs = {
            r.ref_id for st in body for r in _stmt_array_refs(st.stmt)
        }
        for st, ph in phased:
            if st.kind == "scalar":
                got = self.scalar_phase.setdefault(st.name, ph)
                if got != ph:
                    raise _Bail("scalar written in two phases")
                was = self.scalar_repl.setdefault(st.name, st.repl)
                if was != st.repl:
                    raise _Bail("scalar written by mixed executor kinds")
                continue
            if ph != 1:
                raise _Bail("array written outside the inner loop")
            forms = [affine_form(s) for s in st.stmt.lhs.subscripts]
            if any(f is None for f in forms):
                raise _Bail("non-affine store subscript")
            for f in forms:
                _check_form_resolvable(f, (self.i, self.j))
            canon = tuple(_canon_form(f) for f in forms)
            key = (st.name, canon)
            info = self.regions.get(key)
            if info is None:
                if not any(
                    f.coeff(sym) != 0
                    for f in forms
                    for sym in f.symbols
                    if sym.name == self.i and sym.value is None
                ):
                    raise _Bail("store not injective in the inner var")
                info = _WrittenArray(
                    st.stmt.lhs.symbol, forms, canon, st.stmt.lhs.ref_id
                )
                self.regions[key] = info
                self.written_arrays.setdefault(st.name, []).append(key)
            info.write_steps.append(ph)  # phase, only the count matters
            st.region_key = key
            self.ref_forms[st.stmt.lhs.ref_id] = (st.stmt.lhs.symbol, forms)
        for st, ph in phased:
            for ref in st.rhs.refs():
                if not isinstance(ref, ArrayElemRef):
                    continue
                name = ref.symbol.name
                forms = [affine_form(s) for s in ref.subscripts]
                if any(f is None for f in forms):
                    raise _Bail("non-affine read subscript")
                vars_ok = (self.i, self.j) if ph == 1 else (self.j,)
                for f in forms:
                    _check_form_resolvable(f, vars_ok)
                    if ph != 1 and any(
                        sym.name == self.i and sym.value is None
                        for sym in _form_symbols(f)
                    ):
                        raise _Bail("inner index outside the inner loop")
                if name in self.written_arrays:
                    if ph != 1:
                        raise _Bail("written array read outside the body")
                    canon = tuple(_canon_form(f) for f in forms)
                    key = (name, canon)
                    if key in self.regions:
                        self.read_region[ref.ref_id] = key
                    else:
                        self.disjoint_reads.append(ref.ref_id)
                self.ref_forms[ref.ref_id] = (ref.symbol, forms)
        # the executor position may only depend on j (and constants)
        for sym, _c in self.pos_form.coeffs:
            if sym.value is None and sym.name != self.j:
                if not sym.is_loop_var or sym.name in self.scalar_phase:
                    raise _Bail("executor position not a column function")
        # inner bounds: affine in j (triangular), free of the inner
        # variable and of anything the takeover writes
        self.low_form = affine_form(inner.low)
        self.high_form = affine_form(inner.high)
        if self.low_form is None or self.high_form is None:
            raise _Bail("inner bounds not affine")
        for form in (self.low_form, self.high_form):
            for sym, _c in form.coeffs:
                if sym.value is None and (
                    sym.name == self.i or sym.name in self.scalar_phase
                ):
                    raise _Bail("inner bounds vary during the takeover")

    # ------------------------------------------------------------------

    def _rank_tapes(self, count, inst0, exec_col):
        """Each rank's tier-2 tape as ``(rank, step, inst)``: the
        statement (index into pre + body + post) and the number of
        every instance it runs, in order — all of its own columns',
        the replicated ones of foreign columns."""
        steps = self.pre + self.body + self.post
        step_of = np.empty(
            int(count.sum()), dtype=np.min_scalar_type(len(steps))
        )
        s0 = 0
        for first, phase in zip(inst0, (self.pre, self.body, self.post)):
            for k in range(len(phase)):
                step_of[first + k] = s0 + k
            s0 += len(phase)
        repl = np.asarray([st.repl for st in steps])
        if repl.any():
            ranks, everywhere = range(len(self.sim.memories)), repl[step_of]
        else:
            ranks, everywhere = np.unique(exec_col).tolist(), False
        for r in ranks:
            mine = np.flatnonzero(np.repeat(exec_col == r, count) | everywhere)
            yield r, step_of[mine], mine

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        nj = slab_trip_count(low, high, step)
        sim = self.sim
        if nj == 0:
            return lambda: None
        jvec = low + step * np.arange(nj, dtype=np.int64)
        exec_col, cols_of = _exec_columns(self, jvec, env)
        # per-column inner bounds — the triangular part
        try:
            si = (
                self.fast.eval_bound(self.inner.step, env)
                if self.inner.step is not None
                else 1
            )
        except _BOUND_ERRORS:
            raise _Bail("inner bounds not evaluable") from None
        if si == 0:
            raise _Bail("zero inner step")
        si = int(si)
        jvar = {self.j: jvec}
        li = np.broadcast_to(
            np.asarray(_affine_vec(self.low_form, jvar, env)), (nj,)
        ).astype(np.int64)
        hi = np.broadcast_to(
            np.asarray(_affine_vec(self.high_form, jvar, env)), (nj,)
        ).astype(np.int64)
        widths = slab_trip_count(li, hi, si)
        if bool((widths == 0).any()):
            # a column with no inner iterations still runs its prologue
            # and epilogue; keep the uncommon shape on tier 2
            raise _Bail("empty inner slab")
        nflat = int(widths.sum())
        seg_start = np.cumsum(widths) - widths
        jflat = np.repeat(jvec, widths)
        #: inner iteration number of each flat lane within its column
        tflat = np.arange(nflat, dtype=np.int64) - np.repeat(seg_start, widths)
        iflat = np.repeat(li, widths) + si * tflat
        # lane offsets for every reference: body refs over the flat
        # lanes, prologue/epilogue refs over the columns
        lane_vars = ({self.j: jvec}, {self.i: iflat, self.j: jflat})
        offs = _lane_offsets(
            self.ref_forms,
            lambda ref_id: lane_vars[ref_id in self.body_refs],
            env,
        )
        _check_disjoint(self, offs, nflat)
        # statement instances in per-iteration order: column by column,
        # prologue, body step by step, epilogue
        npre, nbody = len(self.pre), len(self.body)
        count = npre + widths * nbody + len(self.post)
        base = np.cumsum(count) - count
        inst0 = (
            base,
            np.repeat(base + npre, widths) + nbody * tflat,
            base + npre + widths * nbody,
        )
        log = _FetchLog(self)
        ctx = _TriCtx(
            self, jvec, iflat, jflat, widths, env, exec_col, cols_of, offs,
            inst0, log,
        )
        phases = (self.pre, self.body, self.post)
        with np.errstate(over="ignore", invalid="ignore"):
            for phase, steps in enumerate(phases):
                ctx.phase = phase
                for k, st in enumerate(steps):
                    ctx.process(st, k)
        fetch_plan = log.schedule(env)

        def commit():
            memories = sim.memories
            clocks = sim.clocks
            dts = clocks.tape(
                [st.dt for st in self.pre + self.body + self.post]
            )
            tapes = self._rank_tapes(count, inst0, exec_col)
            fetched = 0
            if fetch_plan is not None:
                fetched = log.commit(
                    fetch_plan, dts, {r: (step, at) for r, step, at in tapes}
                )
            else:
                for r, step, _at in tapes:
                    clocks.charge_compute_tape(r, dts[step])
            many = sim.grid.size > 1
            rank_flat = ctx.rank_flat
            for key, info in self.regions.items():
                name = key[0]
                offv = _lane_index(offs[info.ref0], nflat)
                nw = len(info.write_steps)
                shadow = ctx.array_shadow[key]
                for r, lanes in ctx.lanes_of[1]:
                    sel = tuple(o[lanes] for o in offv)
                    memory = memories[r]
                    memory.arrays[name][sel] = shadow[lanes]
                    memory.valid[name][sel] = True
                    memory.versions[name] += lanes.size * nw
                if many:
                    # every write instance invalidates each non-owner
                    for r2, memory in enumerate(memories):
                        lanes = np.nonzero(rank_flat != r2)[0]
                        if not lanes.size:
                            continue
                        sel = tuple(o[lanes] for o in offv)
                        memory.valid[name][sel] = False
                        memory.versions[name] += lanes.size * nw
            last_rank = int(exec_col[-1])
            for name, wp in self.scalar_phase.items():
                vec = ctx.scalar_shadow[wp].get(name)
                if vec is None:
                    continue
                if self.scalar_repl[name]:
                    # every rank executed every write; all copies end
                    # valid, holding the last column's value
                    v = vec[-1].item()
                    for memory in memories:
                        memory.scalar_store(name, v)
                    continue
                for r, cols in cols_of.items():
                    c = int(cols[-1])
                    lane = int(ctx.seg_end[c]) if wp == 1 else c
                    memories[r].scalar_store(name, vec[lane].item())
                if many:
                    for r2, memory in enumerate(memories):
                        if r2 != last_rank:
                            memory.scalar_invalidate(name)
            if self.i not in env:
                # the walker's per-iteration epilogue leaves the inner
                # index at the last column's final value
                env[self.i] = int(li[-1] + widths[-1] * si)
            sim.slab_instances += nj * (
                len(self.pre) + len(self.post)
            ) + nflat * len(self.body)
            return fetched

        return commit


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class SlabExecutor:
    """Tier-3 entry point: owns the eligibility report and one runtime
    plan per loop, attempts takeovers, and falls back on any bail."""

    def __init__(self, fast):
        self.fast = fast
        self.sim = fast.sim
        sim = self.sim
        report = getattr(sim.compiled, "slabs", None)
        if report is None or report.ir_epoch != sim.proc.ir_epoch:
            reduction_ids = {
                s.stmt_id
                for red in sim.compiled.ctx.reductions
                for s in red.update_stmts
            }
            report = classify_procedure(
                sim.proc,
                sim.compiled.executors,
                sim.compiled.comm.events,
                reduction_ids,
                grid_rank=sim.grid.rank,
            )
        self.report = report
        self._plans: dict[int, Any] = {}
        self._eligible = report.eligible_loops()
        #: satellite fix for the DGEFA regression: a program whose
        #: report has no eligible nest at all pays nothing per loop
        #: entry (one flag check instead of a plan lookup + prepare)
        self.enabled = bool(self._eligible)
        #: per-loop consecutive prepare bails; a nest that bails this
        #: many times without ever committing is demoted to tier 2 for
        #: the rest of the run (prepare overhead was pure loss)
        self._bail_counts: dict[int, int] = {}
        self._committed: set[int] = set()
        self.GIVE_UP_AFTER = 8

    def _record_bail(self, stmt: LoopStmt, reason: str) -> None:
        sim = self.sim
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.bail[{reason}]")
            sim.metrics.inc(f"slab.fallback[loop=S{stmt.stmt_id}]")
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.bail", cat="sim", loop=stmt.stmt_id, reason=reason
            )

    def _build(self, stmt: LoopStmt):
        sid = stmt.stmt_id
        # Plan construction only reads the IR and the static reports;
        # a bail means "this loop is tier 2", a numeric-domain error in
        # a closed form means the same — anything else (NameError,
        # TypeError, ...) is a genuine bug and must surface.
        try:
            if self.report.inner.get(sid) == "ok":
                return InnerPlan(self, stmt)
            if self.report.column.get(sid) == "ok":
                return ColumnPlan(self, stmt)
            if self.report.triangular.get(sid) == "ok":
                return TriangularPlan(self, stmt)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            return None
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "plan construction error")
            return None
        return None

    def _decide(self, sid: int, choice: str) -> None:
        sim = self.sim
        if sim.tier_decisions.get(sid) != choice:
            sim.tier_decisions[sid] = choice
        if sim.metrics is not None:
            sim.metrics.inc(f"tier.decision[loop=S{sid},choice={choice}]")

    def run_loop(self, stmt: LoopStmt, low: int, high: int, step: int,
                 env) -> bool:
        if not self.enabled:
            return False
        sid = stmt.stmt_id
        sim = self.sim
        approved = sim._tier_approved
        if approved is not None and sid not in approved:
            if sid in self._eligible:
                # the TierPlan predicted tier 2 to win here
                self._decide(sid, "lowered")
            return False
        plan = self._plans.get(sid, _MISSING)
        if plan is _MISSING:
            plan = self._build(stmt)
            self._plans[sid] = plan
        if plan is None:
            return False
        # Phase A (prepare) mutates nothing: a bail or a numeric-domain
        # error falls back to tier 2, which replays the loop exactly;
        # genuine programming errors propagate.
        try:
            commit = plan.prepare(low, high, step, env)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            self._decide(sid, "lowered")
            if sid not in self._committed:
                bails = self._bail_counts.get(sid, 0) + 1
                self._bail_counts[sid] = bails
                if bails >= self.GIVE_UP_AFTER:
                    # never succeeded: stop paying prepare per entry
                    self._plans[sid] = None
            return False
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "prepare error")
            self._decide(sid, "lowered")
            return False
        # Phase B (commit) is outside the net: a failure here would mean
        # corrupted state and must surface, not silently re-execute.
        fetched = commit()
        self._committed.add(sid)
        self._decide(sid, "slab")
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.takeover[loop=S{sid}]")
            if fetched:
                sim.metrics.inc(f"slab.fetch_replay[loop=S{sid}]", fetched)
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.takeover", cat="sim", loop=sid, low=low,
                high=high, step=step,
            )
        return True
