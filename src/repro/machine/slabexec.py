"""Tier 3: slab-vectorized loop execution.

The lowered closures of :mod:`repro.machine.lowering` (tier 2) still
execute one iteration x one rank x one element at a time.  This module
takes whole loop nests over as one data-parallel operation each — the
"generalized data-parallel operation" view of the paper's privatized
loops: a *domain* of statement instances, a *signature* from each
instance to the elements it reads, and the recognized folds.  A *lane*
is a (statement instance, executing rank) pair; every statement is
evaluated once over all of its lanes as numpy vector operations, each
lane reading through its own rank's copy, and the virtual clocks are
charged in closed form from per-statement charge tapes.

There is one plan (:class:`NestPlan`) and one evaluation context.  What
used to be three kinds of takeover are shapes of the domain, described
by data (:class:`_Domain`): the outer iterations — *columns* — are
always lanes; the iterations of the one inner loop, when there is one,
are lanes too (a flattened, possibly triangular nest: the per-column
*widths* vary with the outer index) unless a value flows from one of
them to the next — then the inner loop is the *serial axis*: the body
runs trip by trip, each statement still vectorized across the columns.

Eligibility (the fallback ladder's top rung) is decided once per nest
and checked again per entry:

* the **classification** (:func:`classify_procedure`, the compiled
  program's ``slabs``) starts from each loop's nest shape
  (:func:`~repro.codegen.veceval.nest_shape`: assign-only bodies and
  affine subscripts, as in the sequential reference) and adds its own
  rules — at most one inner loop, executors that are a fixed rank set
  or the owner of the column, communication placed above the loop per
  the communication analysis, no dependence carried between lanes per
  :mod:`repro.analysis.dependence`, and a store role for every
  statement — and builds the nest's :class:`NestPlan`, or names the
  first reason it is not one takeover.  The plan is machine- and
  run-independent: every simulation of the program shares it.  It
  also carries its price (``NestPlan.cost``:
  :meth:`~repro.perf.PerfEstimator.nest_cost`), and under
  ``tier="auto"`` a nest is taken only where the slab engine is
  predicted to win or the estimator could not price it;
* each **entry** (:meth:`NestPlan.prepare`) checks what depends on live
  state (validity of read operands, executor rank sets, divisors,
  subscript bounds, disjointness of the concrete index sets) and
  *bails* — executing nothing and mutating nothing — the moment any
  assumption fails.  A bailed takeover falls back to the tier-2 lowered
  closures, which reproduce the per-iteration semantics (including any
  error and its exact partial state) bit for bit.

Bit-for-bit clock identity is guaranteed by construction: per-instance
compute charges are precomputed ``dt`` values replayed through
``np.add.accumulate`` (strictly sequential, unlike pairwise
``np.sum``), so a slab charges exactly the floating-point sum the
per-iteration path would have produced.  Reads of elements (and
subscript scalars) the executing rank does not hold are fetched inside
the takeover: :class:`~repro.machine.fetchreplay._FetchLog` records
each one at its first read in per-iteration order and replays messages
and compute in that order at commit, so ``TrafficStats`` and the
clocks see tier 2's exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable

import numpy as np

from ..codegen.veceval import (
    _BOUND_ERRORS,
    _RED_UFUNC,
    NestShape,
    _Bail,
    _Ctx,
    _affine_vec,
    _bounds_checked_offset,
    _canon_form,
    _carried_dependence,
    _coerce_vec,
    _eval,
    _fold_lanes,
    _fold_operand,
    _masked_lanes,
    _mentions,
    _reduction_operand,
    _serial_axis,
    _stmt_array_refs,
    masked_fold,
    nest_shape,
)
from ..ir.expr import ArrayElemRef, ScalarRef
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt
from ..perf.estimator import NestCost, PerfEstimator
from .fetchreplay import _FetchLog
from .memory import tabulate_owners
from .simulator import ReductionIndex

#: consecutive prepare bails after which a nest that never committed is
#: demoted to tier 2 for the rest of the run
GIVE_UP_AFTER = 8


def slab_trip_count(low, high, step):
    """Trip count of ``DO v = low, high, step`` (0 when empty).

    Closed form ``max(0, (high - low + step) // step)``; ``low``/
    ``high`` may be per-column vectors (triangular nests)."""
    n = (high - low + step) // step
    if np.ndim(n) == 0:
        return max(int(n), 0)
    return np.maximum(n, 0)


# ---------------------------------------------------------------------------
# Static classification (``CompiledProgram.slabs``)
# ---------------------------------------------------------------------------


@dataclass
class SlabReport:
    """Per-loop slab plans and their prices.

    ``verdicts`` maps every loop statement id to the loop's
    :class:`NestPlan` — it is one takeover, priced against tier 2
    (``plan.cost``, ``plan.choice``) — or to the first reason it is
    not.  Derived from the compiled program on first read and again
    when ``ir_epoch`` is stale, like the lowering; the plans hold no
    machine or run state, so every simulation of the program shares
    them.
    """

    ir_epoch: int
    verdicts: dict[int, "NestPlan | str"] = field(default_factory=dict)

    def eligible_loops(self) -> set[int]:
        """Statement ids of every loop with a plan."""
        return {
            sid for sid, v in self.verdicts.items() if isinstance(v, NestPlan)
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


def _check_executor(info, v: str, one_d: bool) -> str | None:
    """Executor must be an owner/all set whose position does not vary
    with the vectorized loop variable ``v`` — or, on a one-dimensional
    grid, is the owner of ``v``'s own column."""
    if info is None:
        return "no executor info"
    if info.kind not in ("owner", "all"):
        return f"executor kind {info.kind}"
    if info.kind == "owner" and not one_d and any(
        dim.kind == "pos" and dim.form is not None and _mentions(dim.form, v)
        for dim in info.position
    ):
        return f"executor position varies with {v}"
    return None


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


def _column_discipline(stmts, v: str, stores_only: bool, forms) -> str | None:
    """Each array keeps one dimension subscripted exactly ``v`` and the
    others ``v``-free — in its stores, or in every reference — so a
    column's lanes touch only their own column of it."""
    vdims: dict[str, int] = {}
    for s in stmts:
        for ref in _stmt_array_refs(s):
            if stores_only and ref is not s.lhs:
                continue
            name = ref.symbol.name
            fs = forms[ref.ref_id]
            own = [
                d for d, f in enumerate(fs) if _canon_form(f) == (0, ((v, 1),))
            ]
            if any(_mentions(f, v) for d, f in enumerate(fs) if d not in own):
                return f"{name}: mixed {v}-subscript"
            if len(own) != 1:
                return f"{name}: no unique {v}-column dimension"
            if vdims.setdefault(name, own[0]) != own[0]:
                return f"{name}: inconsistent {v}-column dimension"
    return None


def _classify(compiled, loop: LoopStmt, placements,
              reductions: ReductionIndex, verdicts) -> "NestPlan | str":
    """The plan of ``loop`` as one data-parallel operation, or the first
    reason it is not one.

    Without an inner loop every iteration is a lane on a *fixed*
    executor set: the executors may not vary with the loop variable,
    and no array value may flow between iterations.

    With one inner loop the outer iterations are columns, each run by
    the owner of the same outer-variable position; replicated
    statements may ride along when they touch no array.  The inner
    iterations are flattened into the lanes — their bounds may be
    affine in the outer variable (triangular nests) — with every store
    in the inner loop and naming its own column, scalar reduction
    updates folded there, and reads free to leave the column (fetched
    at run time) as long as no value flows between outer iterations;
    or, when the inner loop carries a value, they are the serial axis:
    the bounds must then be the same for every column and every
    reference must stay inside its own column, so the columns evolve
    independently in program order."""
    shape = nest_shape(loop)
    if isinstance(shape, str):
        return shape
    nested = [s for s in loop.body if isinstance(s, LoopStmt)]
    if len(nested) > 1:
        return "more than one inner loop"
    if len(shape.loops) > len(nested):
        return "inner body contains LoopStmt"
    inner = nested[0] if nested else None
    # the statements before the inner loop, in it and after it — a
    # guarding IF, then the assignments of its branch
    pre, body, post = phases = ([], [], [])
    phase = pre
    for s in loop.body:
        if s is inner:
            body.extend(t for t in s.body if isinstance(t, AssignStmt))
            phase = post
        elif isinstance(s, AssignStmt):
            phase.append(s)
        elif isinstance(s, IfStmt):
            if masked_fold(s) is None:
                return "IF body is not a guarded fold"
            phase += [s, *(t for t in s.then_body if isinstance(t, AssignStmt))]
    if shape.guards and inner is not None:
        return "guarded fold outside the innermost loop"
    if not (pre if inner is None else body):
        return "empty body"
    proc, executors = compiled.proc, compiled.executors
    reduction_ids = reductions.recognized
    v = loop.var.name
    stmts, forms = shape.assigns, shape.forms

    def communicates(s) -> str | None:
        if any(level >= loop.level for level in placements.get(s.stmt_id, ())):
            return "communication placed inside the loop"
        return None

    if inner is None:
        one_d = compiled.grid.rank == 1
        for s in stmts:
            info = executors.get(s.stmt_id)
            reason = _check_executor(info, v, one_d) or communicates(s)
            if reason is not None:
                return f"S{s.stmt_id}: {reason}"
        for s in shape.conds:
            reason = communicates(s)
            if reason is not None:
                return f"S{s.stmt_id}: {reason}"
        reason = _carried_dependence(
            proc, loop, shape.conds + stmts, forms, reduction_ids
        )
        if reason is not None:
            return reason
        plan = NestPlan(shape, None, False, [None, None, None])
        return plan._build(compiled, reductions, phases) or plan

    if compiled.grid.rank != 1:
        return "grid is not one-dimensional"
    i = inner.var.name
    # (an inner loop with a plan carries no value: its own verdict)
    serial = not isinstance(verdicts.get(inner.stmt_id), NestPlan) and (
        _serial_axis(proc, inner, body, forms, reduction_ids)
    )
    #: the affine form of each inner bound that varies with the column
    bound_forms = []
    for tag, (names, form) in zip(
        ("low", "high", "step"), shape.bounds[inner.stmt_id]
    ):
        if i in names:
            return "inner bounds vary with the inner variable"
        if v in names and (serial or tag == "step"):
            # a serial axis has one trip count for all columns
            return "inner bounds vary with the loop variables"
        if form is None and not serial:
            return f"inner {tag} bound not affine"
        bound_forms.append(form if v in names else None)
    canon_pos = None
    for s in stmts:
        sid = s.stmt_id
        if sid in reduction_ids and (serial or isinstance(s.lhs, ArrayElemRef)):
            # (a flattened nest folds its *scalar* updates, rank by rank)
            return f"S{sid}: reduction update in body"
        info = executors.get(sid)
        if info is None:
            return f"S{sid}: no executor info"
        if _replicated_exec(info) and not serial:
            # every rank runs it each iteration: fine for scalar-only
            # statements (their operands are checked at run time);
            # arrays would read per-rank state
            if _stmt_array_refs(s):
                return f"S{sid}: replicated statement touches arrays"
            reason = communicates(s)
            if reason is not None:
                return f"S{sid}: {reason}"
            continue
        if info.kind != "owner":
            return f"S{sid}: executor kind {info.kind}"
        pos = tuple(
            _canon_form(dim.form)
            if dim.kind == "pos" and dim.form is not None
            else dim.kind
            for dim in info.position
        )
        if canon_pos is None:
            canon_pos = pos
        elif pos != canon_pos:
            return "executor position differs across statements"
        if not serial:
            # (a serial nest whose position is no point — one rank —
            # is declined by its plan's executors, after every check
            # here)
            if len(pos) != 1:
                return f"S{sid}: executor is not a 1-D owner position"
            if isinstance(pos[0], str):
                return f"S{sid}: executor position is not a point"
        if any(
            dim.kind == "pos" and dim.form is not None
            and _mentions(dim.form, i)
            for dim in info.position
        ):
            return "executor position varies with the inner variable"
        reason = communicates(s)
        if reason is not None:
            return f"S{sid}: {reason}"
    if canon_pos is None:
        return "no owner-positioned statement"
    written = {
        s.lhs.symbol.name for s in body if isinstance(s.lhs, ArrayElemRef)
    }
    for s in pre + post:
        if isinstance(s.lhs, ArrayElemRef) and not serial:
            return "array written outside the inner loop"
        for ref in _stmt_array_refs(s):
            name = ref.symbol.name
            if name in written and not serial:
                return f"{name}: written array read outside the inner loop"
            if any(_mentions(f, i) for f in forms[ref.ref_id]):
                return f"{name}: {i}-subscript outside the inner loop"
    reason = _column_discipline(stmts, v, not serial, forms)
    if reason is not None:
        return reason
    # no value may flow between columns (within one, the inner loop's
    # own verdict or the serial axis takes care of it)
    reason = _carried_dependence(
        proc, loop, stmts, forms, reduction_ids, frozenset((i,))
    )
    if reason is not None:
        return reason
    plan = NestPlan(shape, inner, serial, bound_forms)
    return plan._build(compiled, reductions, phases) or plan


def classify_procedure(compiled) -> SlabReport:
    """Every loop nest's priced plan, or the first reason it has none."""
    proc = compiled.proc
    placements = _placement_map(compiled.comm.events)
    reductions = ReductionIndex(compiled)
    report = SlabReport(ir_epoch=proc.ir_epoch)

    def visit(stmts):
        for s in stmts:
            if isinstance(s, LoopStmt):
                # inner verdicts first: whether a nest flattens its
                # inner loop depends on it.  A nest with a plan preempts
                # its inner loop's; a bail falls back to tier 2, which
                # re-enters the inner loop's own takeover
                visit(s.body)
                report.verdicts[s.stmt_id] = _classify(
                    compiled, s, placements, reductions, report.verdicts
                )
            elif isinstance(s, IfStmt):
                visit(s.then_body)
                visit(s.else_body)

    visit(proc.body)
    # one estimator prices every plan with its class constants (see
    # docs/COSTMODEL.md, "Per-nest tier choice")
    estimator = PerfEstimator(compiled)
    for plan in report.verdicts.values():
        if isinstance(plan, NestPlan):
            try:
                plan.cost = estimator.nest_cost(plan.loop)
            except Exception:  # never fail a run over a prediction
                pass
    return report

# ---------------------------------------------------------------------------
# The runtime plan
# ---------------------------------------------------------------------------


class _Step:
    """One assignment — or guarding IF — of the nest, preprocessed."""

    __slots__ = ("stmt", "sid", "index", "k", "kind", "name", "stype",
                 "expr", "op", "follows", "group", "fold")

    def __init__(self, stmt: AssignStmt | IfStmt, index: int, k: int):
        self.stmt = stmt
        self.sid = stmt.stmt_id
        #: position among all the nest's statements, and within its phase
        self.index = index
        self.k = k
        #: an IF's ``masked_fold``: the guarded accumulator's store
        #: stands for the IF (``_store_role``)
        self.fold = masked_fold(stmt) if isinstance(stmt, IfStmt) else None
        lhs = stmt.lhs if self.fold is None else self.fold[1]
        self.name = lhs.symbol.name
        self.stype = lhs.symbol.type
        #: an "array" or "scalar" store of ``expr`` — or, with ``op``,
        #: the fold of ``expr`` over the lanes into a "reduction"
        #: scalar or an "afold" element (both private to each rank) or
        #: an "sfold" element (a plain owner-computes store,
        #: serialized); a "guard" evaluates its IF's masked fold, and a
        #: "masked" assignment of its branch is charged on the lanes
        #: where the guard holds
        self.kind = "array" if isinstance(lhs, ArrayElemRef) else "scalar"
        self.expr = stmt.rhs if self.fold is None else self.fold[2]
        self.op = None
        #: executed by the owner of its column (else: by a fixed rank
        #: set); index of the nest's statements sharing its executor
        self.follows = False
        self.group = 0


def _afold_operand(rhs, name: str, canon: tuple, op: str, forms: dict):
    """``A(c) = A(c) OP e`` / ``A(c) = MAX(A(c), e)`` → ``e`` (both
    orderings), where the accumulator reference matches the store's
    canonical subscript form exactly (``forms``: the nest shape's);
    None otherwise.  ``e`` must not touch the accumulator array at
    all."""

    def is_acc(e):
        return (
            isinstance(e, ArrayElemRef) and e.symbol.name == name
            and tuple(_canon_form(f) for f in forms[e.ref_id]) == canon
        )

    return _fold_operand(rhs, op, name, is_acc)


def _span(form, ranges: dict, lane_vars: tuple, env) -> tuple | None:
    """The interval ``form`` spans over the lane variables' ``ranges``,
    other symbols at their ``env`` values; None where a symbol has
    neither, or is a lane variable without a range (the environment
    holds a stale value of a loop variable the walker left behind)."""
    lo = hi = form.const
    for sym, c in form.coeffs:
        if sym.value is not None:
            x = y = int(sym.value)
        elif sym.name in ranges:
            x, y = ranges[sym.name]
        elif sym.name in lane_vars:
            return None
        elif sym.name in env:
            x = y = int(env[sym.name])
        else:
            return None
        lo, hi = lo + min(c * x, c * y), hi + max(c * x, c * y)
    return lo, hi


def _lane_addresses(ref_forms: dict, canons: dict, lanes_of: Callable,
                    env) -> tuple:
    """ref_id -> the flat *element* of its array each lane names — the
    ravel of the bounds-checked per-dimension offsets, an int where no
    subscript varies with the lanes — and ref_id -> the lane's
    *address* in the array's ``(P, *shape)`` buffer, ``lanes.rank *
    size + element``.  ``lanes_of(ref_id)`` gives the ref's lanes and
    ``canons[ref_id]`` its forms' ``_canon_form``;
    dimensions subscripted by one form over the same lanes and bounds
    — whatever the array — share one offset vector, references alike
    in every dimension one element and one address vector."""
    dims: dict[tuple, Any] = {}
    shared: dict[tuple, tuple] = {}
    elems: dict[int, Any] = {}
    addrs: dict[int, np.ndarray] = {}
    for ref_id, (symbol, forms) in ref_forms.items():
        lanes = lanes_of(ref_id)
        canon = canons[ref_id]
        key = (lanes, canon, symbol.dims)
        if key not in shared:
            size = 1
            for d, f in enumerate(forms):
                dim = (lanes, canon[d], symbol.dims[d])
                if dim not in dims:
                    dims[dim] = _bounds_checked_offset(
                        _affine_vec(f, lanes.vars, env), symbol, d
                    )
                extent = symbol.extent(d)
                elem = dims[dim] if d == 0 else elem * extent + dims[dim]
                size *= extent
            shared[key] = (elem, lanes.rank * size + elem)
        elems[ref_id], addrs[ref_id] = shared[key]
    return elems, addrs


#: statement phases of a nest, in execution order: before the inner
#: loop, its body, after it (a loop without an inner loop is all PRE)
PRE, BODY, POST = 0, 1, 2


class _Domain:
    """The iteration domain of one takeover, as data.

    ``jvec`` is the outer index of every *column*.  A column runs the
    prologue once, the body ``trips`` times — the inner index starting
    at ``low`` and advancing by ``step`` — and the epilogue once.
    ``widths`` of those trips lie side by side as lanes and ``serial``
    of them follow one another, ``trips == widths * serial``: a
    flattened nest has ``widths == trips`` (varying with the column
    when it is triangular) and one pass over the body, a nest with a
    serial axis ``widths == 1`` and ``serial`` passes, a loop without
    an inner loop an empty body.  ``count`` statement instances belong
    to each column, numbered from ``base`` in per-iteration order.

    Who runs them is data too: ``layouts`` holds one executor layout
    per distinct executor of the nest, ``lanes_of`` every statement's
    lanes at its level (the flattened body's, or the columns'),
    ``participants`` the ranks running anything at all, and ``tapes``
    — filled at the first commit — each rank's charge tape.  They are
    laid out from ``runs``, each executor's ranks per column.

    ``key`` is what the domain is a function of (``NestPlan._shape``):
    the outer loop's bounds and step, the inner bounds and the owner
    position at the first column."""

    __slots__ = ("jvec", "low", "step", "trips", "widths", "serial",
                 "serial_var", "count", "base", "layouts", "lanes_of",
                 "participants", "tapes", "runs", "key")

    def ranges(self, plan: "NestPlan") -> dict:
        """Loop variable -> (min, max) over the domain: the columns',
        and the inner index's over every lane and every pass."""
        ranges = {plan.v: (int(self.jvec.min()), int(self.jvec.max()))}
        if plan.i is not None:
            ends = np.append(self.low, self.low + self.step * (self.trips - 1))
            ranges[plan.i] = (int(ends.min()), int(ends.max()))
        return ranges

    def binding(self, t: int) -> dict:
        """The serial axis' index at body pass ``t``, as an env entry."""
        if self.serial_var is None:
            return {}
        return {self.serial_var: int(self.low[0]) + self.step * t}


class _Lanes:
    """The lanes of one executor layout at one level — its columns, or
    the flattened body.  A lane is a (statement instance, executing
    rank) pair; lanes are ordered rank-major (then by column, then by
    inner iteration), so each rank's lanes are one slice and run in
    per-iteration order."""

    def __init__(self, runs: np.ndarray, rank, col, lane_vars: dict,
                 spread=None):
        #: the layout (shared by its levels, and what identifies it)
        self.runs = runs
        self.n = rank.size
        self.rank = rank
        self.col = col
        #: the loop variables' lane vectors
        self.vars = lane_vars
        #: in the flattened body: the column-level lane each lane
        #: belongs to and its inner iteration within the column, then
        #: those ``columns``, their ``widths`` and ``first`` flat lanes
        #: (at column level: the lanes themselves, and nothing)
        self.up, self.tw, self.columns, self.widths, self.first = spread or (
            np.arange(rank.size), None, None, None, None
        )
        ends = np.bincount(rank, minlength=len(runs)).cumsum().tolist()
        #: the ranks with lanes and each one's slice of them
        self.slices = [
            (r, slice(start, stop))
            for r, (start, stop) in enumerate(zip([0] + ends, ends))
            if stop > start
        ]
        self._home = self._lane_id = None

    @property
    def home(self) -> np.ndarray:
        """One lane per statement instance — that of the lowest rank
        running it — as a lane mask."""
        if self._home is None:
            self._home = self.rank == self.runs.argmax(axis=0)[self.col]
        return self._home

    @property
    def lane_id(self) -> np.ndarray:
        """(rank, column) -> column-level lane, -1 where not run."""
        if self._lane_id is None:
            self._lane_id = np.full(self.runs.shape, -1, dtype=np.int64)
            self._lane_id[self.rank, self.col] = self.up
        return self._lane_id


class _Layout:
    """Which rank runs which column of the statements sharing one
    executor: ``runs[r, c]`` — the owner-computes layout has one rank
    per column, a fixed executor set the same ranks for every column —
    and its lanes at either level."""

    def __init__(self, runs: np.ndarray, dom: _Domain, plan: "NestPlan"):
        self.runs = runs
        rank, col = runs.nonzero()
        self.columns = _Lanes(runs, rank, col, {plan.v: dom.jvec[col]})
        self._flat = None
        # what the flattened lanes are built from (not the domain
        # itself, which holds the layouts: no reference cycle)
        self._spread = (
            dom.widths, plan.v, dom.jvec,
            plan.i if plan.i in plan.flat_vars else None, dom.low, dom.step,
        )

    def at(self, flat: bool) -> _Lanes:
        if not flat:
            return self.columns
        if self._flat is None:
            widths, v, jvec, i, low, step = self._spread
            cols = self.columns
            widths = widths[cols.col]
            first = widths.cumsum() - widths
            up = cols.up.repeat(widths)
            tw = np.arange(up.size, dtype=np.int64) - first[up]
            col = cols.col[up]
            lane_vars = {v: jvec[col]}
            if i is not None:
                lane_vars[i] = low[col] + step * tw
            self._flat = _Lanes(
                self.runs, cols.rank[up], col, lane_vars,
                (up, tw, cols, widths, first),
            )
        return self._flat


class _Region:
    """The elements one store form writes in one body pass, the lane
    values last stored there, and when: (pass, step index)."""

    __slots__ = ("lanes", "ref_id", "t", "vec", "at")

    def __init__(self, lanes: _Lanes, ref_id: int, t: int, vec, at: tuple):
        self.lanes = lanes
        self.ref_id = ref_id
        self.t = t
        self.vec = vec
        self.at = at


class _NestCtx(_Ctx):
    """One takeover in flight: the lane values of everything the nest
    has written so far, the reads that went to memory, and the fetch
    log.  Evaluation is global — one ``_eval`` per statement per pass,
    whatever the number of ranks; per-rank state is gathered lane-wise
    through each lane's executing rank."""

    def __init__(self, plan: "NestPlan", slab: "SlabExecutor", dom: _Domain,
                 env):
        self.plan = plan
        self.dom = dom
        self.base_env = env
        self.sim, self.fast = slab.sim, slab.fast
        self.store = self.sim.store
        self.log = _FetchLog(self.sim, plan.lane_vars)
        #: step index -> the step's lanes
        self.lanes_of = dom.lanes_of
        #: the env the subscripts are evaluated in
        self.sub_env = sub_env = self._subscript_env(env)
        #: per-pass increment of every element (and address) that moves
        #: with the serial axis
        self.strides = {
            ref_id: coeff * dom.step for ref_id, coeff in plan.strides.items()
        }

        def lanes_of(ref_id):
            return self.lanes_of[plan.ref_home[ref_id]]

        #: ref_id -> lane elements and addresses at the first body
        #: pass; the last pass is evaluated for its bounds checks alone
        self.elem, self.addr = _lane_addresses(
            plan.ref_forms, plan.ref_canon, lanes_of,
            {**sub_env, **dom.binding(0)} if dom.serial_var else sub_env,
        )
        if self.strides and dom.serial > 1:
            _lane_addresses(
                {r: plan.ref_forms[r] for r in self.strides}, plan.ref_canon,
                lanes_of, {**sub_env, **dom.binding(dom.serial - 1)},
            )
        #: scalar name -> (lanes, pass, lane values) of its last store
        self.scalars: dict[str, tuple] = {}
        #: store key -> region
        self.regions: dict[tuple, _Region] = {}
        #: reads of written arrays that found no region (yet), the
        #: arrays read from one, and (pass, step index) of the first
        #: store to each array
        self.misses: list[tuple] = []
        self.region_reads: set[str] = set()
        self.first_store: dict[str, tuple] = {}
        #: accumulator name / fold step index -> rank -> folded value
        self.reduced: dict[str, dict] = {}
        self.folded: dict[int, dict] = {}
        #: guard step index -> the lanes running its branch
        self.masks: dict[int, np.ndarray] = {}
        self._memory_scalars: dict[tuple, tuple] = {}
        self._gathered: dict[int, tuple] = {}
        self.npass = 0

    def _subscript_env(self, env) -> dict:
        """``env`` plus the memory scalars the subscripts reference
        (INTEGER symbols: the only ones an affine form holds), at the
        one value every valid copy among the participants holds.  A
        participant without one fetches it where tier 2 does — at its
        first instance reading it, from the lowest rank holding it
        then — into the log (``_FetchLog.fetch_scalar``)."""
        plan, dom = self.plan, self.dom
        scalars = plan.shape.subscript_scalars - set(env)
        if not scalars:
            return env
        sub_env = dict(env)
        for nm in sorted(scalars):
            valid, held = self.store.scalar_valid[nm], self.store.scalars[nm]
            values = {held[r] for r in dom.participants if valid[r]}
            if len(values) != 1 or plan.shape.guards and not all(
                valid[r] for r in dom.participants
            ):
                raise _Bail(f"subscript scalar {nm} "
                            + ("diverges" if values else "invalid"))
            sub_env[nm] = int(values.pop())
            # each rank lacking it: its first instance reading it
            first: dict[int, tuple] = {}
            for index, ref in plan.subscript_reads.get(nm, {}).values():
                st = plan.all_steps[index]
                lanes = self.lanes_of[index]
                heads = [sl.start for _r, sl in lanes.slices]
                for (r, _sl), inst in zip(
                    lanes.slices, (dom.base[lanes.col[heads]] + st.k).tolist()
                ):
                    if not valid[r] and inst < first.get(r, (inst + 1,))[0]:
                        first[r] = (inst, st.stmt, ref)
            holders = [r for r, ok in enumerate(valid) if ok]
            fetches: dict[int, list] = {}
            for r in sorted(first, key=lambda r: (first[r][0], r)):
                src = min(holders)
                if valid[src] and held[src] != sub_env[nm]:
                    # (a fetcher holds the value it fetched)
                    raise _Bail(f"subscript scalar {nm} diverges")
                inst, stmt, ref = first[r]
                fetches.setdefault(id(ref), [ref, stmt]).append((inst, src, r))
                holders.append(r)
            for ref, stmt, *rows in fetches.values():
                self.log.fetch_scalar(ref, stmt, *zip(*rows), sub_env[nm])
        return sub_env

    # -- evaluation ----------------------------------------------------

    def run(self) -> None:
        """Evaluate the nest pass by pass; raises ``_Bail`` — nothing
        has been mutated — when it cannot stand in for tier 2."""
        plan, dom = self.plan, self.dom
        for phase, steps in enumerate(plan.steps):
            for t in range(dom.serial if phase == BODY else 1):
                self.phase, self.t = phase, t
                self.npass += 1
                self._env = self.base_env
                if phase == BODY:
                    self._env = {**self.base_env, **dom.binding(t)}
                    self.pass_keys = plan.moving_keys(self._env)
                for st in steps:
                    self.process(st)
        self._check_stores()
        self.fetch_plan = self.log.schedule(self.base_env)

    def process(self, st: _Step) -> None:
        if st.kind == "masked":
            return  # its guard evaluated it
        self.cur = st
        self.q = 0
        lanes = self.lanes = self.lanes_of[st.index]
        value, is_int = _eval(st.expr, self)
        if st.kind == "guard":
            self._masked(st, value, is_int)
            return
        if st.op is not None:
            self._fold(st, value, is_int)
            return
        vec = _coerce_vec(value, is_int, st.stype, lanes.n)
        if st.kind == "scalar":
            was = self.scalars.get(st.name)
            if was is not None and was[0].runs is not lanes.runs:
                raise _Bail(f"scalar {st.name} written by two executor sets")
            self.scalars[st.name] = (lanes, self.npass, vec)
            return
        ref_id = st.stmt.lhs.ref_id
        key = self.plan.keys[ref_id] or self.pass_keys[ref_id]
        region = self.regions.get(key)
        at = (self.npass, st.index)
        self.first_store.setdefault(st.name, at)
        if region is None:
            self.regions[key] = _Region(lanes, ref_id, self.t, vec, at)
        elif region.lanes is not lanes:
            raise _Bail("array writers differ in executor set")
        else:
            region.vec, region.at = vec, at

    def _fold(self, st: _Step, value, is_int: bool) -> None:
        """``acc = acc OP e`` over each rank's lanes, in iteration
        order, seeded with the rank's own accumulator."""
        if st.kind == "reduction":
            results = self.reduced.setdefault(st.name, {})
        else:
            results = self.folded[st.index] = {}
            data, valid, _size = self.store.flat[st.name]
            addr = self._fold_addresses(st.index)
            if not valid.take(addr).all():
                raise _Bail("fold accumulator invalid")
            starts = data.take(addr)
        for k, (r, sl) in enumerate(self.lanes.slices):
            if st.kind != "reduction":
                start = starts[k]
            elif r in results:
                start = results[r]
            elif self.store.scalar_valid[st.name][r]:
                start = self.store.scalars[st.name][r]
            else:
                raise _Bail("reduction accumulator invalid")
            results[r] = _fold_lanes(
                st.op, start,
                value[sl] if isinstance(value, np.ndarray) else value,
                is_int, st.stype, sl.stop - sl.start,
            )

    def _masked(self, st: _Step, value, is_int: bool) -> None:
        """The guarded update ``IF (e REL acc) THEN acc = e; loc = f
        ... END IF`` over each rank's lanes, in iteration order, seeded
        with the rank's own accumulator: which lanes run the branch
        (``masks``), and each variable of the branch at the last of a
        rank's (``_masked_lanes``) — a rank whose guard never holds
        stores nothing."""
        rel, acc, _e, stmts = st.fold
        lanes = self.lanes
        mask = np.zeros(lanes.n, dtype=np.bool_)
        last = {}
        for r, sl in lanes.slices:
            if not self.store.scalar_valid[acc.symbol.name][r]:
                raise _Bail("reduction accumulator invalid")
            seed = self.store.scalars[acc.symbol.name][r]
            mask[sl], at = _masked_lanes(
                rel, seed,
                value[sl] if isinstance(value, np.ndarray) else value,
                is_int, isinstance(seed, int), sl.stop - sl.start,
            )
            if at >= 0:
                last[r] = sl.start + at
        if lanes.n > len(lanes.runs[0]):
            # ranks sharing an instance must agree (else tier 2 raises)
            at = lanes.lane_id[lanes.runs.argmax(axis=0), np.arange(lanes.runs.shape[1])]
            if (mask != mask[at][lanes.col]).any():
                raise _Bail("guard disagrees across ranks")
        self.masks[st.index] = mask
        if not last:
            return
        for t in stmts:
            got = (value, is_int) if t.lhs.symbol is acc.symbol else (
                _eval(t.rhs, self)
            )
            vec = _coerce_vec(*got, t.lhs.symbol.type, lanes.n)
            results = self.reduced.setdefault(t.lhs.symbol.name, {})
            for r, lane in last.items():
                results[r] = vec[lane]

    def _fold_addresses(self, index: int) -> np.ndarray:
        """Where each rank folding into step ``index``'s one array
        element keeps it (the address at the rank's first lane), in
        the order of the lanes' ``slices``."""
        heads = [sl.start for _r, sl in self.lanes_of[index].slices]
        ref_id = self.plan.all_steps[index].stmt.lhs.ref_id
        return self.addr[ref_id][heads]

    # -- _Ctx ----------------------------------------------------------

    def loop_vec(self, name: str):
        return self.lanes.vars.get(name)

    @property
    def env(self):
        return self._env

    def _carry(self, vec: np.ndarray, src: _Lanes, what: str) -> np.ndarray:
        """``vec`` over the lanes ``src`` that stored it, as the current
        statement's other lanes read it: each through its own rank's
        copy; a column's value repeated over the column's inner lanes,
        a body value taken at the same inner iteration — or, after the
        body, at the column's last."""
        dst = self.lanes
        at = dst.up
        if src.runs is not dst.runs:
            at = (src.columns or src).lane_id[dst.rank, dst.col]
            if (at < 0).any():
                # the reading rank did not run the store: its copy was
                # invalidated by the ranks that did
                raise _Bail(f"{what} read would fetch")
        if src.tw is None:
            return vec[at]
        if dst.tw is None:
            return vec[src.first[at] + src.widths[at] - 1]
        return vec[src.first[at] + dst.tw]

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self._env:  # mirrors the fetching reader
            v = self._env[name]
            return v, isinstance(v, int)
        plan = self.plan
        stored = self.scalars.get(name)
        if stored is not None:
            src, npass, vec = stored
            if npass == self.npass or self.phase not in plan.scalar_phases[name]:
                if src is not self.lanes:
                    vec = self._carry(vec, src, f"scalar {name}")
                return vec, vec.dtype.kind in "bi"
        if stored is not None or name in plan.scalar_phases:
            # its store in this pass comes later (or it accumulates):
            # the value would flow in from another iteration
            raise _Bail(f"scalar {name} read before its definition")
        lanes = self.lanes
        got = self._memory_scalars.get((name, lanes))
        if got is None:
            # every lane reads its own rank's copy
            held, ok = self.store.scalars[name], self.store.scalar_valid[name]
            ranks = [r for r, _sl in lanes.slices]
            if not all(ok[r] for r in ranks):
                raise _Bail(f"scalar {name} read would fetch")
            values = [held[r] for r in ranks]
            kinds = {isinstance(v, int) for v in values}
            if len(kinds) != 1:
                raise _Bail(f"scalar {name} mixes types across ranks")
            is_int = kinds.pop()
            if len(values) == 1:
                got = (values[0], is_int)
            else:
                vec = np.empty(
                    lanes.n, dtype=np.int64 if is_int else np.float64
                )
                for (_r, sl), v in zip(lanes.slices, values):
                    vec[sl] = v
                got = (vec, is_int)
            self._memory_scalars[(name, lanes)] = got
        return got

    def read_array(self, ref: ArrayElemRef):
        """What the nest stored under the same key is read lane for
        lane; anything else comes from each lane's executing rank.  An
        element invalid there is one the per-iteration path would
        fetch: logged and read from its source."""
        name = ref.symbol.name
        ref_id = ref.ref_id
        key = self.plan.keys[ref_id] or self.pass_keys[ref_id]
        region = self.regions.get(key)
        if region is not None:
            self.region_reads.add(name)
            vec = region.vec
            if region.lanes is not self.lanes:
                vec = self._carry(vec, region.lanes, f"array {name}")
            return vec, vec.dtype.kind in "bi"
        self.q += 1
        if ref_id in self.strides:
            # gathered for every pass at once, one row per pass
            got = self._gathered.get(ref_id)
            if got is None:
                got = self._gathered[ref_id] = self._gather(ref)
            data, ok = got[0][self.t], got[1][self.t]
        else:
            data, ok = self._gather(ref)
        fetched = not ok.all()
        if fetched:
            data = self._fetch(ref, data, ok)
        if name in self.plan.written_arrays:
            # the pre-state of an element the nest writes later in the
            # same lane, or a read that must miss every store: settled
            # once all the stores are known
            self.misses.append((
                key, name, ref_id, self.t, fetched,
                (self.npass, self.cur.index),
            ))
        return data, data.dtype.kind in "bi"

    def _at(self, table: dict, ref_id: int, t: int):
        """The reference's entry of ``table`` — the lane elements or
        addresses — in body pass ``t``."""
        stride = self.strides.get(ref_id)
        if stride is None or t == 0:
            return table[ref_id]
        return table[ref_id] + stride * t

    def _gather(self, ref: ArrayElemRef) -> tuple:
        """``(data, valid)`` of ``ref`` over the current lanes, each
        from its executing rank's copy; for a reference that moves with
        the serial axis, of every pass at once, one row per pass —
        memory does not change while the nest is evaluated."""
        data, valid, _size = self.store.flat[ref.symbol.name]
        addr = self.addr[ref.ref_id]
        stride = self.strides.get(ref.ref_id)
        if stride is not None:
            passes = np.arange(self.dom.serial, dtype=np.int64)[:, None]
            addr = addr + stride * passes
        return data.take(addr), valid.take(addr)

    def _fetch(self, ref: ArrayElemRef, data, ok) -> np.ndarray:
        lanes, dom, plan = self.lanes, self.dom, self.plan
        name = ref.symbol.name
        if self.cur.kind == "guard":
            # (the branch's reads would fetch on its masked lanes only)
            raise _Bail("guarded fold read would fetch")
        if not self.cur.follows and len(dom.participants) != 1:
            # ranks sharing an instance would fetch in an order the log
            # does not record; (a fixed executor fetching beside other
            # ranks' statements stays on tier 2 as well)
            raise _Bail("fetching takeover with multiple executors")
        if dom.serial > 1:
            # (the replay numbers the instances of one body pass;
            # fetches under a serial axis stay on tier 2)
            raise _Bail(f"array {name} read would fetch")
        bad = (~ok).nonzero()[0]
        # the fetching lanes' statement instances, in per-iteration order
        npre, nbody = len(plan.steps[PRE]), len(plan.steps[BODY])
        col = lanes.col[bad]
        inst = dom.base[col] + self.cur.k
        if self.phase == BODY:
            inst += npre + nbody * lanes.tw[bad]
        elif self.phase == POST:
            inst += npre + nbody * dom.trips[col]
        data = data.copy()
        data[bad] = self.log._fetch_read(
            ref, self.cur.stmt, self.q, lanes.rank[bad],
            np.broadcast_to(self.elem[ref.ref_id], ok.shape)[bad], inst,
        )
        return data

    def _check_stores(self) -> None:
        """Settle the reads that went to memory against the stores, and
        gather each array's regions for commit.  The classification was
        symbolic: where an array has several regions, or reads that
        match none, verify the concrete element sets — no element is
        written by two lanes, or read by one lane and written by
        another — else per-iteration order matters across lanes.  One
        lane may write an element twice (``A(l,j)`` and ``A(k,j)`` when
        ``l == k``) if each of its reads of the array precedes its
        first store: the regions commit in statement order.  Regions
        and reads whose subscripts span disjoint intervals over the
        domain (``_apart``) need no concrete check."""
        stray: dict[str, list] = {}
        late: set[str] = set()
        for key, name, ref_id, t, fetched, at in self.misses:
            if key not in self.regions:
                stray.setdefault(name, []).append((ref_id, t))
            elif fetched:
                raise _Bail(f"written array {name} read would fetch")
            if at > self.first_store.get(name, at):
                late.add(name)
        groups: dict[tuple, list] = {}
        for region in self.regions.values():
            name = self.plan.ref_forms[region.ref_id][0].name
            groups.setdefault((name, region.lanes), []).append(region)
        #: (array, lanes) -> the regions these lanes stored: elements,
        #: addresses and values, with one row per region — in the order
        #: of their last stores — when there are several
        self.stores: dict[tuple, tuple] = {}
        marks: dict[str, list] = {}
        for (name, lanes), regions in groups.items():
            rows = [
                (
                    self._at(self.elem, region.ref_id, region.t),
                    self._at(self.addr, region.ref_id, region.t),
                    region.vec,
                )
                for region in sorted(regions, key=lambda r: r.at)
            ]
            stored = self.stores[name, lanes] = (
                rows[0] if len(rows) == 1 else tuple(map(np.stack, zip(*rows)))
            )
            marks.setdefault(name, []).append((stored[0], lanes, len(rows)))
        ranges = self.dom.ranges(self.plan) if marks else None
        for name, stored in marks.items():
            written = [
                region.ref_id for (n, _l), regions in groups.items()
                if n == name for region in regions
            ]
            reads = [
                self._at(self.elem, ref_id, t)
                for ref_id, t in stray.get(name, ())
                if not all(self._apart(ranges, ref_id, w) for w in written)
            ]
            # (each region is injective over its lanes: regions apart
            # are so together)
            several = len(written) > 1 and not all(
                self._apart(ranges, a, b) for a, b in combinations(written, 2)
            )
            elem, lanes, rows = stored[0]
            if several and len(stored) == 1 and (elem[1:] == elem[0]).all():
                # every lane writes its one element once per region:
                # the overlap allowed below, without counting it
                if self.dom.serial > 1 or (
                    name in late or name in self.region_reads
                ):
                    raise _Bail("write regions overlap")
                several = False
            if not several and not reads:
                continue
            mask = np.zeros(self.store.data[name][0].size, dtype=np.bool_)
            count = 0
            for elem, lanes, rows in stored:  # each instance once
                mask[elem[..., lanes.home]] = True
                count += rows * int(lanes.home.sum())
            if several and int(mask.sum()) != count:
                elem, lanes, rows = stored[0]
                if len(stored) > 1 or rows == 1 or (
                    self.dom.serial > 1 or name in late
                    or name in self.region_reads
                ):
                    raise _Bail("write regions overlap")
                # one lane writing an element twice is the only overlap
                # left to allow: each lane's distinct elements
                at = np.sort(elem[..., lanes.home], axis=0)
                if int(mask.sum()) != int((at[1:] != at[:-1]).sum()) + at.shape[1]:
                    raise _Bail("write regions overlap")
            for elem in reads:
                if mask[elem].any():
                    raise _Bail("read overlaps writes across lanes")

    def _apart(self, ranges: dict, a: int, b: int) -> bool:
        """Whether references ``a`` and ``b`` of one array are disjoint
        by the intervals one dimension's subscripts span over the loop
        variables' ``ranges`` (``_span``)."""
        plan = self.plan
        for fa, fb in zip(plan.ref_forms[a][1], plan.ref_forms[b][1]):
            sa = _span(fa, ranges, plan.lane_vars, self.sub_env)
            sb = _span(fb, ranges, plan.lane_vars, self.sub_env)
            if sa and sb and (sa[1] < sb[0] or sb[1] < sa[0]):
                return True
        return False

    # -- commit --------------------------------------------------------

    def _rank_tapes(self) -> tuple:
        """The ranks' tier-2 tapes end to end, in rank order, as
        ``(bounds, step, inst)``: rank ``r`` runs the instances
        ``inst[bounds[r]:bounds[r + 1]]``, ascending, each the
        statement ``step`` (index into the nest's steps)."""
        plan, dom = self.plan, self.dom
        count, trips = dom.count, dom.trips
        npre, nbody = len(plan.steps[PRE]), len(plan.steps[BODY])
        nranks = self.sim.grid.size
        small = np.min_scalar_type(len(plan.all_steps))  # (tape-sized)

        def step_of(at, trips):  # of the instance ``at`` of its column
            body, last = at - npre, nbody * trips
            return np.where(body < 0, at, np.where(
                body < last, npre + body % max(nbody, 1), at - last + nbody
            )).astype(small)

        bounds = np.zeros(nranks + 1, dtype=np.int64)
        if len(dom.layouts) == 1 and trips[0] == trips[-1]:
            # one layout, every column alike (the trips are monotone in
            # the column): a lane runs one pattern of statements, and
            # the lanes are rank-major
            cols, c = dom.layouts[0].columns, int(count[0])
            lengths = np.bincount(cols.rank, minlength=nranks) * c
            steps = np.tile(step_of(np.arange(c), trips[0]), cols.n)
            first = cols.col.astype(np.int32) * c
            inst = (first[:, None] + np.arange(c, dtype=np.int32)).ravel()
        else:
            # every instance's column and statement; a rank runs those
            # whose column the layout of their statement gives it
            col = np.arange(dom.jvec.size).repeat(count)
            step = step_of(np.arange(col.size) - dom.base[col], trips[col])
            groups = np.asarray([st.group for st in plan.all_steps])
            runs = np.stack([layout.runs for layout in dom.layouts])
            rank, inst = runs[groups[step], :, col].T.nonzero()
            lengths = np.bincount(rank, minlength=nranks)
            steps = step[inst]
        np.cumsum(lengths, out=bounds[1:])
        return bounds, steps, inst

    def commit(self) -> tuple[int, int]:
        """Make the takeover visible: clocks, stores and invalidations,
        scalars, folds.  Returns the number of elements fetched and of
        message runs replayed."""
        plan, dom, sim = self.plan, self.dom, self.sim
        clocks = sim.clocks
        dt = self.fast._dt
        dts = clocks.tape([dt[st.sid] for st in plan.all_steps])
        if dom.tapes is None:
            dom.tapes = self._rank_tapes()
        tapes, skipped = self._masked_tapes(dom.tapes)
        replayed = (0, 0)
        if self.fetch_plan is not None:
            replayed = self.log.commit(self.fetch_plan, dts, tapes)
            if sim.tracer.enabled:
                self.log.trace(self.fetch_plan)
        else:
            bounds, steps, _inst = tapes
            cuts = bounds.tolist()
            for r in dom.participants:
                clocks.charge_compute_tape(r, dts[steps[cuts[r]:cuts[r + 1]]])
        store, nranks = self.store, sim.grid.size
        for (name, lanes), (elem, addr, vals) in self.stores.items():
            data, valid, size = store.flat[name]
            for a, v in zip(addr, vals) if addr.ndim > 1 else ((addr, vals),):
                data[a] = v  # (region by region: the last store wins)
            if not lanes.runs.all():
                # every write instance invalidates each rank not
                # running it: nobody holds the elements, then the
                # writers do (a store of many elements through a mask
                # of them)
                copies = valid.reshape(nranks, size)
                if elem.size * nranks < size:
                    copies[:, elem] = False
                else:
                    kept = np.ones(size, dtype=np.bool_)
                    kept[elem] = False
                    copies &= kept
            valid[addr] = True
        for name, (lanes, _npass, vec) in self.scalars.items():
            # every rank keeps the value of its own last instance (it
            # persists even once a later column invalidates it); the
            # copies of the ranks running the last column end valid
            values = store.scalars[name]
            for r, sl in lanes.slices:
                values[r] = vec[sl.stop - 1].item()
            store.scalar_valid[name][:] = lanes.runs[:, -1].tolist()
        for name, results in self.reduced.items():
            for r, value in results.items():
                store.scalars[name][r] = value.item()
                store.scalar_valid[name][r] = True
        for index, results in self.folded.items():
            st = plan.all_steps[index]
            lanes = self.lanes_of[index]
            data, valid, size = store.flat[st.name]
            addr = self._fold_addresses(index)
            data[addr] = [results[r].item() for r, _sl in lanes.slices]
            valid[addr] = True
            # an afold accumulates privately: the other ranks keep
            # their copies, exactly like scalar reductions.  An sfold
            # is a plain owner-computes store, just serialized: it
            # invalidates them once per iteration
            if st.kind == "sfold":
                lost = ~lanes.runs.all(axis=1)
                elem = self.elem[st.stmt.lhs.ref_id]
                valid.reshape(nranks, size)[lost, elem] = False
        if plan.i is not None and plan.i not in self.base_env:
            # the walker's per-iteration epilogue leaves the inner
            # index at the last column's final value
            self.base_env[plan.i] = int(
                dom.low[-1] + dom.trips[-1] * dom.step
            )
        sim.slab_instances += int(dom.count.sum()) - skipped
        return replayed

    def _masked_tapes(self, tapes: tuple) -> tuple:
        """The ranks' tapes without the branch instances of lanes whose
        guard failed, and how many statement instances that leaves out.
        A branch runs on its guard's layout, so its entries come in the
        order of the guard's lanes."""
        if not self.masks:
            return tapes, 0
        bounds, steps, inst = tapes
        keep = np.ones(steps.size, dtype=np.bool_)
        dropped = np.zeros(len(bounds), dtype=np.int64)
        skipped = 0
        for index, mask in self.masks.items():
            branch, lanes = self.plan.branches[index], self.lanes_of[index]
            for k in branch:
                keep[steps == k] = mask
            lost = np.bincount(lanes.rank[~mask], minlength=len(bounds) - 1)
            dropped[1:] += lost * len(branch)
            # (as many ranks run every column)
            skipped += len(branch) * int(lost.sum()) * lanes.runs.shape[1] // lanes.n
        return (bounds - dropped.cumsum(), steps[keep], inst[keep]), skipped


class NestPlan:
    """Vectorized execution of one loop nest as one takeover.

    Built by the classification (:func:`_classify`) for every loop that
    is one takeover, from the loop's nest shape
    (:func:`~repro.codegen.veceval.nest_shape`, which it holds) and the
    compiled program alone: the nest's store roles, its references'
    keys, its executor groups and the owner table of the column.  It
    holds no machine and no run, so every simulation of the program
    shares it.  *prepare* then builds the entry's iteration domain
    (:class:`_Domain`), evaluates every statement over its lanes
    (:class:`_NestCtx`) and returns the commit.  Exact because no value
    flows between lanes:
    every store is injective over its lanes, a lane reads what its own
    instance stored or what the nest never writes, and whatever depends
    on live state — validity, bounds, widths, overlap of the concrete
    index sets — bails to tier 2 before any mutation.  A lane reads
    through its executing rank and fetches what that rank does not
    hold, like tier 2 (:class:`_FetchLog`)."""

    def __init__(self, shape: NestShape, inner: LoopStmt | None,
                 serial: bool, bound_forms: list):
        self.shape = shape
        self.loop = loop = shape.loop
        self.inner = inner
        self.v = v = loop.var.name
        self.i = i = inner.var.name if inner is not None else None
        #: the variable of the serial axis, if there is one, and the
        #: lane axes of the body
        self.serial_var = i if serial else None
        self.flat_vars = (v,) if inner is None or serial else (v, i)
        #: every loop variable the takeover binds
        self.lane_vars = (v,) if inner is None else (v, i)
        #: ref_id -> (symbol, forms); index of its step; what it names
        #: — a canonical key comparable across the nest's statements,
        #: None for a reference that moves with the serial axis (its
        #: key changes with the pass: ``moving_keys``); the flat
        #: element's coefficient on that axis
        self.ref_forms: dict[int, tuple] = {}
        self.ref_canon: dict[int, tuple] = {}
        self.ref_home: dict[int, int] = {}
        self.keys: dict[int, tuple | None] = {}
        self.strides: dict[int, int] = {}
        self._moving: list[tuple] = []
        #: guard step index -> the step indices of its branch
        self.branches: dict[int, list] = {}
        #: memory scalar -> (executor group, phase) -> (step index, its
        #: reference) of the statement reading it first in a subscript
        self.subscript_reads: dict[str, dict] = {}
        #: scalar name -> phases storing it; reduction accumulators
        self.scalar_phases: dict[str, set] = {}
        self.acc_names: set[str] = set()
        self.written_arrays: set[str] = set()
        #: arrays folded into one element (``AMD(k) = MAX(AMD(k), ...)``)
        self.fold_arrays: set[str] = set()
        self.steps: tuple[list, list, list] = ([], [], [])
        self.all_steps: list[_Step] = []
        #: the inner loop's bounds — an absent one is 1: a missing
        #: step, and the single trip of a nest without an inner loop —
        #: with the affine form of each that varies with the column
        self.bounds = (
            (inner.low, inner.high, inner.step) if inner is not None
            else (None, None, None)
        )
        self.bound_forms = bound_forms
        #: the nest's predicted tier-2 and tier-3 times, set by the
        #: classification; None when the estimator could not price it
        self.cost: NestCost | None = None

    @property
    def choice(self) -> str:
        """The engine ``tier="auto"`` gives the nest: tier 2 where it
        is predicted to win, else the slab engine — unpriced nests
        included."""
        if self.cost is not None and not self.cost.slab_wins:
            return "lowered"
        return "slab"

    def _build(self, compiled, reductions: ReductionIndex,
               phases: tuple) -> str | None:
        """Give every statement of the nest — ``phases``: before the
        inner loop, its body, after it — its store role, every
        reference its key and every executor its group; or return the
        first reason the nest is not one takeover."""
        for phase, stmts in enumerate(phases):
            for stmt in stmts:
                st = _Step(stmt, len(self.all_steps), len(self.steps[phase]))
                reason = self._store_role(st, phase, reductions.updates)
                if reason is not None:
                    return reason
                self.steps[phase].append(st)
                self.all_steps.append(st)
        for st in self.all_steps:
            for ref in st.expr.refs():
                if isinstance(ref, ArrayElemRef):
                    if ref.symbol.name in self.fold_arrays:
                        return "fold array read outside its fold"
                    self._register(ref, st)
        if self.fold_arrays & self.written_arrays:
            return "array both folded and written"
        # accumulators must not leak into any other statement
        for st in self.all_steps:
            if (
                st.kind not in ("reduction", "guard", "masked")
                and st.name in self.acc_names
            ):
                return "accumulator written outside the fold"
            for ref in st.expr.refs():
                if isinstance(ref, ScalarRef) and ref.symbol.name in self.acc_names:
                    return "accumulator read outside the fold"
        # a scalar the nest stores is read from its own pass's earlier
        # store, or — in a phase not storing it — from an earlier
        # phase's; else its value would flow in from another iteration
        stored: dict[str, int] = {}  # name -> phase of its latest store
        for phase, steps in enumerate(self.steps):
            for st in steps:
                for ref in st.expr.refs():
                    name = ref.symbol.name
                    if isinstance(ref, ScalarRef) and name in self.scalar_phases and (
                        stored.get(name, -1) < phase
                        if phase in self.scalar_phases[name]
                        else stored.get(name, -1) < 0
                    ):
                        return f"scalar {name} read before its definition"
                if st.kind == "scalar":
                    stored[st.name] = phase
        reason = self._executors(compiled, reductions)
        if reason is not None:
            return reason
        # the statement of each executor group and phase that reads a
        # subscript scalar first, and its reference (lhs subscripts are
        # evaluated first)
        for phase, steps in enumerate(self.steps):
            for st in steps:
                lhs = getattr(st.stmt, "lhs", None)
                for ref in (
                    sub_ref for a in (lhs, *st.expr.refs())
                    if isinstance(a, ArrayElemRef) and st.kind != "masked"
                    for sub in a.subscripts for sub_ref in sub.refs()
                    if sub_ref.symbol.name in self.shape.subscript_scalars
                ):
                    reads = self.subscript_reads.setdefault(ref.symbol.name, {})
                    reads.setdefault((st.group, phase), (st.index, ref))
        if self.inner is None:
            return None
        # what the one plan could run but this round does not take
        # (see CHANGES.md): each keeps its tier-2 verdict
        if self.inner.stmt_id in reductions.by_loop:
            return "inner loop combines a reduction"
        if self.shape.subscript_scalars:
            name = min(self.shape.subscript_scalars)
            return f"subscript depends on scalar {name}"
        return None

    def _store_role(self, st: _Step, phase: int, updates) -> str | None:
        """What ``st`` stores and how: a lane value per instance, or a
        fold over the lanes into one accumulator (None), or why it is
        neither."""
        stmt, v = st.stmt, self.v
        if st.fold is not None:
            # the branch of a guarded MAXLOC/MINLOC update, private to
            # each rank like any recognized reduction's
            stmts = st.fold[3]
            if stmts[0].stmt_id not in updates:
                return "guarded fold is not a privatized reduction"
            st.kind, st.op = "guard", st.fold[0]
            self.acc_names.update(t.lhs.symbol.name for t in stmts)
            self.branches[st.index] = []
            return None
        if st.sid in self.shape.guards:
            st.kind = "masked"  # (evaluated with its guard)
            guard = self.shape.guards[st.sid]
            self.branches[next(
                t.index for t in self.all_steps if t.stmt is guard
            )].append(st.index)
            return None
        reduction = updates.get(st.sid, (None,))[0]
        if reduction is not None and (
            reduction.location_symbol is not None
            or reduction.op not in _RED_UFUNC
            or reduction.symbol.name != st.name
        ):
            return "unsupported reduction form"
        if st.kind == "scalar":
            if reduction is None:
                self.scalar_phases.setdefault(st.name, set()).add(phase)
                return None
            st.expr = _reduction_operand(stmt.rhs, st.name, reduction.op)
            if st.expr is None:
                return "unrecognized reduction update"
            st.kind, st.op = "reduction", reduction.op
            self.acc_names.add(st.name)
            return None
        forms = self._register(stmt.lhs, st)
        canon = tuple(_canon_form(f) for f in forms)
        axes = self.flat_vars if phase == BODY else (v,)
        injective = all(any(_mentions(f, a) for f in forms) for a in axes)
        if reduction is not None:
            # fold into one array element: every lane must hit the same
            # private accumulator element
            if any(_mentions(f, *self.lane_vars) for f in forms):
                return "fold subscript varies with lane"
            st.expr = _afold_operand(
                stmt.rhs, st.name, canon, reduction.op, self.shape.forms
            )
            if st.expr is None:
                return "unrecognized array fold update"
            st.kind, st.op = "afold", reduction.op
        elif not injective:
            # every lane of an axis stores the same element: only a
            # serial fold (``A(c) = A(c) OP e``, the reduction-into-
            # column shape the reduction pass left as a plain
            # owner-computes assign) has per-iteration semantics a
            # slab can replay
            if self.i is not None or any(_mentions(f, v) for f in forms):
                return "store not injective in the loop variables"
            for op in ("+", "*", "MAX", "MIN"):
                st.expr = _afold_operand(
                    stmt.rhs, st.name, canon, op, self.shape.forms
                )
                if st.expr is not None:
                    break
            else:
                return "store not injective in the loop var"
            st.kind, st.op = "sfold", op
        else:
            self.written_arrays.add(st.name)
            return None
        if st.name in self.fold_arrays:
            return "array folded twice"
        self.fold_arrays.add(st.name)
        return None

    def _register(self, ref: ArrayElemRef, st: _Step) -> list:
        """Record an array reference's forms, home and key.  Besides the
        takeover's loop variables a subscript may reference enclosing
        loops' (from env at run time) and the shape's memory scalars,
        resolved to one agreed value at prepare (``subscript_env``)."""
        forms = self.shape.forms[ref.ref_id]
        self.ref_forms[ref.ref_id] = (ref.symbol, forms)
        self.ref_canon[ref.ref_id] = tuple([_canon_form(f) for f in forms])
        self.ref_home[ref.ref_id] = st.index
        # canonical: per dimension the constant — symbolic constants
        # folded in — and the other symbols' terms, the serial axis'
        # coefficient apart
        consts, coeffs, terms = [], [], []
        for f in forms:
            const, ci, rest = f.const, 0, []
            for sym, c in f.coeffs:
                if sym.value is not None:
                    const += c * int(sym.value)
                elif sym.name == self.serial_var:
                    ci = c
                else:
                    rest.append((sym.name, c))
            consts.append(const)
            coeffs.append(ci)
            terms.append(tuple(sorted(rest)))
        head = (ref.symbol.name, tuple(terms))
        if any(coeffs):
            self.keys[ref.ref_id] = None
            stride = 0  # of the flat element, per unit of the axis
            for d, ci in enumerate(coeffs):
                stride = stride * ref.symbol.extent(d) + ci
            self.strides[ref.ref_id] = stride
            self._moving.append((ref.ref_id, head, list(zip(consts, coeffs))))
        else:
            self.keys[ref.ref_id] = (*head, tuple(consts))
        return forms

    def moving_keys(self, env) -> dict:
        """ref_id -> key, at the serial axis' index in ``env``, of every
        reference that moves with the axis: the index resolved into the
        constants, so a store and a later pass's read of the same
        elements (``D(i,j)``, ``D(i-1,j)``) agree."""
        i = env.get(self.serial_var)
        return {
            ref_id: (*head, tuple([c + ci * i for c, ci in dims]))
            for ref_id, head, dims in self._moving
        }

    def _executors(self, compiled, reductions: ReductionIndex) -> str | None:
        """Sort the statements by executor: those run by the owner of
        their column — one canonical 1-D position, a function of the
        outer variable — and those run by a fixed rank set, evaluated
        at prepare."""
        written, everywhere = self.shape.written, reductions.everywhere
        self.pos_form = None
        #: one statement of every distinct executor (``_Step.group``)
        self.executors: list[_Step] = []
        groups: dict = {}
        for st in self.all_steps:
            # (a guard runs where its branch does: checked below)
            sid = st.sid if st.fold is None else st.fold[3][0].stmt_id
            info = compiled.executors[sid]
            runs_all = reductions.runs_everywhere(sid, info)
            forms = [
                dim.form if dim.kind == "pos" and dim.form is not None
                and dim.fmt is not None else None
                for dim in info.position
            ]
            st.follows = not runs_all and any(
                form is not None and _mentions(form, self.v) for form in forms
            )
            # (what the executor set is a function of)
            key = "all" if runs_all else "owner" if st.follows else tuple(
                None if form is None else _canon_form(form) for form in forms
            )
            st.group = groups.setdefault(key, len(groups))
            if st.group == len(self.executors):
                self.executors.append(st)
            if not st.follows:
                continue
            # (on a 1-D grid: the one dimension ``follows`` found)
            dim = info.position[0]
            if self.pos_form is not None and (
                _canon_form(dim.form) != _canon_form(self.pos_form)
            ):
                return "executor position differs across statements"
            self.pos_form, self.pos_fmt = dim.form, dim.fmt
            #: the owner of every column position
            self.owners = tabulate_owners(dim.fmt)
        for st in self.all_steps:
            if st.kind != "guard":
                continue
            # tier 2 evaluates the IF on the union of its dependents'
            # executors: the branch's own, if they are all in it
            decision = compiled.cf_decisions.get(st.sid)
            branch = {t.stmt_id for t in st.fold[3]}
            deps = {
                compiled.proc.stmt_of_ref(ref).stmt_id
                for ref in decision.dependent_refs
            } if decision is not None and decision.privatized else set()
            if not deps or not deps <= branch or any(
                t.group != st.group for t in self.all_steps
                if t.sid in branch
            ):
                return "guard and branch executors differ"
        if self.pos_form is None:
            if self.i is not None:
                # (one rank: the columns have no owner to be sliced by)
                return "executor position is not a point"
        else:
            # the position may only depend on the column (and constants)
            for sym, _c in self.pos_form.coeffs:
                if sym.value is None and sym.name != self.v and (
                    not sym.is_loop_var or sym.name in written
                ):
                    return "executor position not a column function"
        for st in self.all_steps:
            if st.follows:
                continue
            if self.pos_form is not None and (
                st.kind != "scalar"
                or st.sid in everywhere and _stmt_array_refs(st.stmt)
            ):
                # beside column-owned statements only plain scalar
                # stores: the classification held the replicated ones
                # off arrays, this holds folds and what runs everywhere
                return "replicated statement touches an array"
            if st.sid in everywhere:
                continue
            for dim in compiled.executors[st.sid].position:
                if dim.kind == "pos" and dim.form is not None:
                    if _mentions(dim.form, *self.lane_vars, *written):
                        return "executor varies inside the loop"
        return None

    # ------------------------------------------------------------------

    def _shape(self, slab: "SlabExecutor", low: int, high: int, step: int,
               bounds: tuple, pos, ranks: tuple) -> _Domain | None:
        """The iteration domain — None when it is empty — of an entry
        whose loop runs ``low, high, step``, whose inner bounds and
        owner position are ``bounds`` and ``pos`` at the first column,
        and whose fixed executors are ``ranks``.  The run's build for
        these executors serves an entry with its key as itself, and one
        whose columns it covers (``_inside``) as a slice of it; any
        other entry is built anew, and its build replaces the old one.
        Only the latest entry's domain keeps its lanes and tapes, and
        serves the next entry if it has the same key."""
        nj = slab_trip_count(low, high, step)
        if nj == 0:
            return None
        key = (low, high, step, bounds, pos)
        if slab.shape_key == (self, ranks, key):
            return slab.shape
        build = slab.builds.get((self, ranks))
        if build is not None and build.key == key:
            dom = build
        else:
            inside = build and self._inside(build, key, nj)
            if inside:
                dom = self._slice(build, key, nj, *inside)
            else:
                dom = self._build_shape(key, nj, ranks, slab.sim.grid.size)
                slab.builds[self, ranks] = dom
                if slab.sim.metrics is not None:
                    slab.sim.metrics.inc(
                        f"slab.shape_build[loop=S{self.loop.stmt_id}]"
                    )
        if slab.shape is not None and slab.shape is not dom:
            # (a build outlives its entry by its columns and runs)
            slab.shape.layouts = slab.shape.lanes_of = None
            slab.shape.tapes = None
        slab.shape_key, slab.shape = (self, ranks, key), dom
        if dom.layouts is None:
            self._lay_out(dom)
        return dom

    def _build_shape(self, key: tuple, nj: int, ranks: tuple,
                     nranks: int) -> _Domain:
        """The columns and executor runs of the domain of ``key`` on
        ``nranks`` ranks, with fixed executors ``ranks``: a function of
        these alone."""
        low, _high, step, (li, hi, si), pos = key
        dom = _Domain()
        dom.key = key
        ahead = step * np.arange(nj, dtype=np.int64)  # of the first column

        def per_column(first, form):
            slope = 0 if form is None else form.coeff(self.loop.var)
            return first + slope * ahead

        dom.jvec = low + ahead
        if si == 0:
            raise _Bail("zero inner step")
        dom.step = si
        dom.low = per_column(li, self.bound_forms[0])
        dom.trips = slab_trip_count(
            dom.low, per_column(hi, self.bound_forms[1]), si
        )
        dom.serial_var = self.serial_var
        if self.serial_var is None:
            dom.widths, dom.serial = dom.trips, 1
        else:
            dom.widths, dom.serial = np.ones_like(dom.trips), int(dom.trips[0])
        if not dom.widths.all():
            # a column with no inner iterations still runs its prologue
            # and epilogue; keep the uncommon shape on tier 2
            raise _Bail("empty inner slab")
        # statement instances in per-iteration order: column by column,
        # prologue, body trip by trip, epilogue
        npre, nbody, npost = (len(steps) for steps in self.steps)
        dom.count = npre + dom.trips * nbody + npost
        dom.base = dom.count.cumsum() - dom.count
        dom.layouts = dom.tapes = None
        runs_of: dict = {}  # by rank set: equal executors share one
        for st, fixed in zip(self.executors, ranks):
            if fixed in runs_of:
                continue
            runs = runs_of[fixed] = np.zeros((nranks, nj), dtype=np.bool_)
            if st.follows:
                at = per_column(pos, self.pos_form)
                if int(at.min()) < 0 or int(at.max()) >= self.pos_fmt.extent:
                    raise _Bail("executor position out of range")
                # (on the plan's 1-D grid a coordinate is the rank)
                runs[self.owners[at], np.arange(nj)] = True
            elif fixed:
                runs[list(fixed)] = True
            else:
                raise _Bail("empty executor set")
        dom.runs = [runs_of[fixed] for fixed in ranks]
        return dom

    def _inside(self, build: _Domain, key: tuple, nj: int) -> tuple | None:
        """``(m, d)`` when the entry of ``key`` runs ``build``'s columns
        from column ``m`` on, each from its inner trip ``d`` on, with the
        same steps, owners and inner ends; else None — always for a
        serial axis, whose passes are not lanes."""
        low, _high, step, (li, hi, si), pos = key
        low0, _high0, step0, (li0, hi0, si0), pos0 = build.key
        m, off = divmod(low - low0, step)
        if self.serial_var is not None or off or m < 0 or (
            step != step0 or si != si0 or m + nj > build.jvec.size
        ):
            return None

        def moved(form):  # from the build's first column to the entry's
            return 0 if form is None else form.coeff(self.loop.var) * m * step

        d, off = divmod(li - li0 - moved(self.bound_forms[0]), si)
        if off or d < 0 or hi != hi0 + moved(self.bound_forms[1]) or (
            pos0 is not None and pos != pos0 + moved(self.pos_form)
        ):
            return None
        return m, d

    def _slice(self, build: _Domain, key: tuple, nj: int, m: int,
               d: int) -> _Domain:
        """The domain of ``key``: ``build``'s columns ``m`` to ``m + nj``
        without their first ``d`` inner trips (views where nothing
        moves)."""
        dom = _Domain()
        dom.key = key
        cut = slice(m, m + nj)
        dom.jvec, dom.low = build.jvec[cut], build.low[cut]
        dom.trips, dom.count = build.trips[cut], build.count[cut]
        if d:
            if int(dom.trips.min()) <= d:
                raise _Bail("empty inner slab")
            dom.low = dom.low + d * build.step
            dom.trips = dom.trips - d
            dom.count = dom.count - d * len(self.steps[BODY])
        dom.step, dom.serial_var, dom.serial = build.step, None, 1
        dom.widths = dom.trips
        dom.base = dom.count.cumsum() - dom.count
        dom.layouts = dom.tapes = None
        views = {id(runs): runs[:, cut] for runs in build.runs}
        dom.runs = [views[id(runs)] for runs in build.runs]
        return dom

    def _lay_out(self, dom: _Domain) -> None:
        """``dom``'s layouts, every statement's lanes and the ranks
        running anything, from its runs."""
        layouts: dict = {}  # equal executors share one
        for runs in dom.runs:
            if id(runs) not in layouts:
                layouts[id(runs)] = _Layout(runs, dom, self)
        dom.layouts = [layouts[id(runs)] for runs in dom.runs]
        dom.lanes_of = [
            dom.layouts[st.group].at(phase == BODY)
            for phase, steps in enumerate(self.steps)
            for st in steps
        ]
        dom.participants = sorted({
            r for layout in dom.layouts for r, _sl in layout.columns.slices
        })

    def prepare(self, slab: "SlabExecutor", low: int, high: int, step: int,
                env) -> Callable:
        # ``slab`` is the run's executor.  What the entry's shape is a
        # function of — a handful of integers that move with an
        # enclosing loop, if at all, so the executor keeps a build per
        # nest to slice from (``_shape``).  A bound invariant over the
        # columns is evaluated once, uncharged, exactly like the
        # per-iteration walker's eval_bound; one affine in the column,
        # and the owners' position, at the first column
        first = {self.v: low}
        try:
            bounds = tuple([
                1 if bound is None
                else slab.fast.eval_bound(bound, env) if form is None
                else _affine_vec(form, first, env)
                for bound, form in zip(self.bounds, self.bound_forms)
            ])
        except _BOUND_ERRORS:
            raise _Bail("inner bounds not evaluable") from None
        dom = self._shape(
            slab, low, high, step, bounds,
            None if self.pos_form is None
            else _affine_vec(self.pos_form, first, env),
            tuple([
                None if st.follows
                else tuple(slab.sim.etables.ranks_of(st.stmt)(env))
                for st in self.executors
            ]),
        )
        if dom is None:
            return lambda: (0, 0)
        ctx = _NestCtx(self, slab, dom, env)
        with np.errstate(over="ignore", invalid="ignore"):
            ctx.run()
        return ctx.commit


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class SlabExecutor:
    """Tier-3 entry point of one run: attempts a takeover of every loop
    the compiled program has a plan for, falls back on any bail, and
    keeps what belongs to the run — the nests' shape builds and the bail
    counts that demote a nest."""

    def __init__(self, fast):
        self.fast = fast
        self.sim = fast.sim
        self.report = report = self.sim.compiled.slabs
        #: whether the nests' prices pick the engine (``tier="auto"``)
        #: or every plan is taken (``tier="slab"``)
        self.priced = self.sim.tier == "auto"
        #: a program without a plan pays nothing per loop entry: one
        #: flag check instead of a verdict lookup
        self.enabled = bool(report.eligible_loops())
        #: per-loop consecutive prepare bails; a nest that reaches
        #: GIVE_UP_AFTER without ever committing is demoted to tier 2
        #: for the rest of the run (prepare overhead was pure loss)
        self._bail_counts: dict[int, int] = {}
        self._committed: set[int] = set()
        #: (plan, fixed executors) -> the run's build of the nest's
        #: shape, released when the run ends; the latest entry's
        #: domain, the one holding lanes and tapes, and what it is a
        #: function of (``NestPlan._shape``)
        self.builds: dict[tuple, _Domain] = {}
        self.shape_key = self.shape = None

    def _record_bail(self, stmt: LoopStmt, reason: str) -> None:
        sim = self.sim
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.bail[{reason}]")
            sim.metrics.inc(f"slab.fallback[loop=S{stmt.stmt_id}]")
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.bail", cat="sim", loop=stmt.stmt_id, reason=reason
            )

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
        plan = self.report.verdicts.get(sid)
        if not isinstance(plan, NestPlan):
            return False
        sim = self.sim
        if self.priced and plan.choice == "lowered":
            self._decide(sid, "lowered")
            return False
        if self._bail_counts.get(sid, 0) >= GIVE_UP_AFTER:
            return False
        # Phase A (prepare) mutates nothing: a bail or a numeric-domain
        # error falls back to tier 2, which replays the loop exactly;
        # genuine programming errors propagate.
        try:
            commit = plan.prepare(self, low, high, step, env)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            self._decide(sid, "lowered")
            if sid not in self._committed:
                # never succeeded: the GIVE_UP_AFTER-th bail stops
                # paying prepare per entry
                self._bail_counts[sid] = self._bail_counts.get(sid, 0) + 1
            return False
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "prepare error")
            self._decide(sid, "lowered")
            return False
        # Phase B (commit) is outside the net: a failure here would mean
        # corrupted state and must surface, not silently re-execute.
        fetched, runs = commit()
        self._committed.add(sid)
        self._decide(sid, "slab")
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.takeover[loop=S{sid}]")
            if fetched:
                sim.metrics.inc(f"slab.fetch_replay[loop=S{sid}]", fetched)
                sim.metrics.inc(f"slab.fetch_runs[loop=S{sid}]", runs)
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.takeover", cat="sim", loop=sid, low=low,
                high=high, step=step,
            )
        return True
