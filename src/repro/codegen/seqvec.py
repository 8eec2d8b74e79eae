"""Whole-loop takeovers for the sequential reference.

The paper's legality argument, applied to the reference itself: a
scalar assigned before it is used in every iteration is privatizable,
and a loop whose scalars are all privatizable and whose arrays carry no
dependence across iterations is one data-parallel operation — a domain
(the iterations), a signature (the affine subscripts) and, for the
recognized ``+``/``*``/``MAX``/``MIN`` updates, a fold.  Such a loop
executes here as numpy lane operations over the global arrays, one
lane per iteration: no ranks, no ownership, no clocks.  Loops nested in
a taken loop run serially with a scalar index and lane-vector values,
which is the legal interchange of a column sweep (``D(i,j)`` from
``D(i-1,j)``): the parallel outer ``j`` becomes the lane axis, the
serial inner ``i`` runs as written.

Whether a loop has the shape is decided once per loop statement
(:class:`_Plan`).  Everything that depends on values — a subscript out
of bounds, a zero divisor, an undefined scalar, fewer than two trips —
is found while evaluating, raises ``_Bail`` before any store is
visible (array stores are journalled and rolled back), and hands the
loop to the per-iteration closures, which reproduce the interpreter's
error and its exact partial state.
"""

from __future__ import annotations

import numpy as np

from ..ir.expr import ArrayElemRef, ScalarRef, affine_form
from ..ir.stmt import AssignStmt, ContinueStmt, LoopStmt
from ..ir.symbols import ScalarType
from .veceval import (
    _BOUND_ERRORS,
    _RED_UFUNC,
    _Bail,
    _Ctx,
    _affine_vec,
    _bounds_checked_offset,
    _carried_dependence,
    _check_affine_refs,
    _coerce_vec,
    _eval,
    _fold_lanes,
    _reduction_operand,
    _stmt_array_refs,
)

_MISSING = object()


class _Plan:
    """The takeover shape of one loop; raises ``_Bail`` with the reason
    when the loop does not have it."""

    def __init__(self, proc, loop: LoopStmt):
        self.v = v = loop.var.name
        self.body = loop.body
        assigns: list[AssignStmt] = []
        inner: list[LoopStmt] = []

        def collect(stmts):
            for s in stmts:
                if isinstance(s, AssignStmt):
                    assigns.append(s)
                elif isinstance(s, LoopStmt):
                    inner.append(s)
                    collect(s.body)
                elif not isinstance(s, ContinueStmt):
                    raise _Bail(f"body contains {type(s).__name__}")

        collect(loop.body)
        if not assigns:
            raise _Bail("empty body")
        self.inner_vars = inner_vars = {l.var.name for l in inner}
        if v in inner_vars:
            raise _Bail(f"inner loop reuses {v}")
        written = set()
        for s in assigns:
            if isinstance(s.lhs, ScalarRef):
                if s.lhs.symbol.is_loop_var:
                    raise _Bail(f"loop variable {s.lhs.symbol.name} assigned")
                written.add(s.lhs.symbol.name)

        for l in inner:
            for bound in (l.low, l.high, l.step):
                for ref in bound.refs() if bound is not None else ():
                    if isinstance(ref, ArrayElemRef):
                        raise _Bail("inner bound reads an array")
                    if ref.symbol.name == v or ref.symbol.name in written:
                        raise _Bail(
                            f"inner bound depends on {ref.symbol.name}"
                        )

        #: ref_id -> per dimension (affine form, its coefficient on v)
        self.forms: dict[int, list] = {}
        #: store scalars the subscripts read (never written in the body)
        self.subscript_scalars: set[str] = set()
        for s in assigns:
            reason = _check_affine_refs(s)
            if reason is not None:
                raise _Bail(reason)
            for ref in _stmt_array_refs(s):
                forms = [affine_form(sub) for sub in ref.subscripts]
                self.forms[ref.ref_id] = [
                    (form, sum(c for sym, c in form.coeffs
                               if sym.name == v and sym.value is None))
                    for form in forms
                ]
                for form in forms:
                    for sym, _c in form.coeffs:
                        if sym.value is not None or sym.is_loop_var:
                            continue
                        if sym.name in written:
                            raise _Bail(
                                f"subscript depends on body-written "
                                f"scalar {sym.name}"
                            )
                        self.subscript_scalars.add(sym.name)
            if isinstance(s.lhs, ArrayElemRef) and not any(
                self._separates_lanes(form)
                for form, _cv in self.forms[s.lhs.ref_id]
            ):
                raise _Bail(f"store to {s.lhs.symbol.name} is lane-invariant")

        self.folds = self._scalar_roles(assigns, written, innermost=not inner)
        reason = _carried_dependence(proc, loop, assigns, inner_vars=inner_vars)
        if reason is not None:
            raise _Bail(reason)

    def _separates_lanes(self, form) -> bool:
        """Distinct lanes, distinct elements — whatever the inner
        indices are: ``v`` appears, no inner-loop variable does."""
        names = {sym.name for sym, c in form.coeffs if c and sym.value is None}
        return self.v in names and not names & self.inner_vars

    def _scalar_roles(self, assigns, written, innermost: bool) -> dict:
        """Every body-written scalar is defined textually before each
        use (privatizable: a lane vector) or is the accumulator of a
        fold: ``stmt_id -> (op, operand)``.  A definition inside a
        nested loop does not reach past that loop (it may run zero
        trips)."""
        defs: dict[str, int] = {}
        uses: dict[str, int] = {}
        for s in assigns:
            if isinstance(s.lhs, ScalarRef):
                defs[s.lhs.symbol.name] = defs.get(s.lhs.symbol.name, 0) + 1
            for ref in s.uses():
                if isinstance(ref, ScalarRef):
                    uses[ref.symbol.name] = uses.get(ref.symbol.name, 0) + 1
        folds: dict[int, tuple] = {}

        def fold_of(s, name):
            if not (
                innermost
                and isinstance(s.lhs, ScalarRef)
                and s.lhs.symbol.name == name
                and s.lhs.symbol.type is not ScalarType.LOGICAL
                and defs[name] == 1
                and uses[name] == 1
            ):
                return None
            for op in _RED_UFUNC:
                operand = _reduction_operand(s.rhs, name, op)
                if operand is not None:
                    return op, operand
            return None

        def scan(stmts, defined: set):
            for s in stmts:
                if isinstance(s, LoopStmt):
                    scan(s.body, set(defined))
                elif isinstance(s, AssignStmt):
                    for ref in s.uses():
                        name = ref.symbol.name
                        if (
                            isinstance(ref, ScalarRef)
                            and name in written
                            and name not in defined
                        ):
                            fold = fold_of(s, name)
                            if fold is None:
                                raise _Bail(
                                    f"scalar {name} used before its definition"
                                )
                            folds[s.stmt_id] = fold
                    if isinstance(s.lhs, ScalarRef) and s.stmt_id not in folds:
                        defined.add(s.lhs.symbol.name)

        scan(self.body, set())
        return folds


class _SeqCtx(_Ctx):
    """One takeover in flight: lane values of the privatized scalars,
    fold results, a private copy of the loop environment, and the undo
    journal of the array stores made so far."""

    def __init__(self, hooks, plan: _Plan, low: int, step: int, n: int, env):
        self.eval_bound = hooks.eval_bound
        self.store = hooks.store
        self.plan = plan
        self.n = n
        self.k = np.arange(n)
        self.iv = low + step * self.k
        #: subscripts are evaluated on the first lane; the last one is
        #: ``span`` x (coefficient on v) further, and an affine
        #: subscript is in bounds on every lane iff it is on those two
        self.first = {plan.v: low}
        self.step = step
        self.span = step * (n - 1)
        self._env = dict(env)
        self.lanes: dict[str, np.ndarray] = {}
        self.folded: dict[str, object] = {}
        self.journal: list[tuple] = []
        #: statement instances / inner-loop iterations of one lane
        self.steps = 0
        self.iterations = 0

    # -- _Ctx ----------------------------------------------------------

    def loop_vec(self, name: str):
        return self.iv if name == self.plan.v else None

    @property
    def env(self):
        return self._env

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        vec = self.lanes.get(name)
        if vec is not None:
            return vec, vec.dtype.kind in "bi"
        value = self._env.get(name, _MISSING)  # the reader looks there first
        if value is _MISSING:
            value = self.store.scalars.get(name, _MISSING)
            if value is _MISSING:
                raise _Bail(f"read of undefined scalar {name}")
        return value, isinstance(value, int)

    def read_array(self, ref: ArrayElemRef):
        data = self.store.arrays[ref.symbol.name][self._index(ref)]
        return data, data.dtype.kind in "bi"

    # -- execution -----------------------------------------------------

    def _index(self, ref: ArrayElemRef) -> tuple:
        """Bounds-checked numpy index of ``ref`` over the lanes: ints
        for lane-invariant dimensions, a slice for the one that walks
        with the lanes (index vectors when several do)."""
        symbol = ref.symbol
        offs = []
        walking = []
        for dim, (form, cv) in enumerate(self.plan.forms[ref.ref_id]):
            index = _affine_vec(form, self.first, self._env)
            offs.append(_bounds_checked_offset(index, symbol, dim))
            if cv:
                _bounds_checked_offset(index + cv * self.span, symbol, dim)
                walking.append((dim, cv * self.step))
        for dim, stride in walking:
            first = offs[dim]
            if len(walking) > 1:
                offs[dim] = first + stride * self.k
            else:
                stop = first + stride * self.n
                offs[dim] = slice(first, stop if stop >= 0 else None, stride)
        return tuple(offs)

    def _assign(self, stmt: AssignStmt) -> None:
        lhs = stmt.lhs
        name = lhs.symbol.name
        fold = self.plan.folds.get(stmt.stmt_id)
        if fold is not None:
            self.folded[name] = self._fold(lhs, *fold)
            return
        value, is_int = _eval(stmt.rhs, self)
        vec = _coerce_vec(value, is_int, lhs.symbol.type, self.n)
        if isinstance(lhs, ScalarRef):
            self.lanes[name] = vec
            return
        array = self.store.arrays[name]
        index = self._index(lhs)
        self.journal.append((array, index, array[index].copy()))
        array[index] = vec

    def _fold(self, acc: ScalarRef, op: str, operand):
        """``acc = acc OP e`` over the lanes, in iteration order."""
        seed, seed_int = self.read_scalar(acc)
        value, is_int = _eval(operand, self)
        result = _fold_lanes(
            op, seed, value, is_int and seed_int, acc.symbol.type, self.n
        )
        if op in ("MAX", "MIN") and (result == 0 or result != result):
            # ties between -0.0 and 0.0, and NaN, resolve by argument
            # order in python's max/min
            raise _Bail(f"{op} fold result is a zero or NaN")
        return result

    def run(self, stmts) -> None:
        env = self._env
        bound = self.eval_bound
        for s in stmts:
            self.steps += 1
            if isinstance(s, AssignStmt):
                self._assign(s)
            elif isinstance(s, LoopStmt):
                low = bound(s.low, env)
                high = bound(s.high, env)
                step = bound(s.step, env) if s.step is not None else 1
                if step == 0:
                    raise _Bail("zero step")
                name = s.var.name
                saved = env.get(name)
                index = low
                while index <= high if step > 0 else index >= high:
                    env[name] = index
                    self.iterations += 1
                    self.run(s.body)
                    index += step
                # the walker's epilogue: Fortran leaves the final index
                env[name] = index if saved is None else saved

    def rollback(self) -> None:
        for array, index, old in reversed(self.journal):
            array[index] = old

    def commit(self, env) -> None:
        """Last lane of every privatized scalar, fold results, and the
        inner loops' final indices become visible."""
        scalars = self.store.scalars
        for name, vec in self.lanes.items():
            scalars[name] = vec[-1].item()
        for name, result in self.folded.items():
            scalars[name] = result.item()
        for name in self.plan.inner_vars:
            if name in self._env:
                env[name] = self._env[name]


class SeqVectorizer:
    """``run_loop`` takeover of the lowered sequential hooks."""

    def __init__(self, hooks, stats):
        self.hooks = hooks
        self.store = hooks.store
        self.stats = stats
        #: loop stmt_id -> _Plan, or the reason the loop keeps its
        #: per-iteration closures
        self.verdicts: dict[int, _Plan | str] = {}
        #: committed takeovers, and loop stmt_id -> why its last
        #: attempt bailed
        self.taken = 0
        self.bails: dict[int, str] = {}

    def run_loop(self, stmt: LoopStmt, low: int, high: int, step: int, env) -> bool:
        plan = self.verdicts.get(stmt.stmt_id)
        if plan is None:
            try:
                plan = _Plan(self.store.proc, stmt)
            except _Bail as why:
                plan = str(why)
            self.verdicts[stmt.stmt_id] = plan
        if isinstance(plan, str):
            return False
        n = (high - low + step) // step
        if n < 2:
            return False
        ctx = _SeqCtx(self.hooks, plan, low, step, n, env)
        stats = self.stats
        try:
            scalars = self.store.scalars
            for name in plan.subscript_scalars:
                if name not in ctx.env:
                    if name not in scalars:
                        raise _Bail(f"read of undefined scalar {name}")
                    ctx.env[name] = scalars[name]
            # python floats overflow to inf and turn invalid into NaN
            # silently; the lanes must too
            with np.errstate(all="ignore"):
                ctx.run(plan.body)
            if stats.statements_executed + n * ctx.steps > stats.max_steps:
                raise _Bail("execution step limit")
        except (_Bail, *_BOUND_ERRORS) as why:
            ctx.rollback()
            self.bails[stmt.stmt_id] = str(why)
            return False
        ctx.commit(env)
        self.taken += 1
        stats.statements_executed += n * ctx.steps
        stats.loop_iterations += n * ctx.iterations
        return True
