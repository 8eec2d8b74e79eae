"""Whole-loop takeovers for the sequential reference.

The paper's legality argument, applied to the reference itself: a
scalar assigned before it is used in every iteration is privatizable,
and a loop whose scalars are all privatizable and whose arrays carry no
dependence across iterations is one data-parallel operation — a domain
(the iterations), a signature (the affine subscripts) and, for the
recognized ``+``/``*``/``MAX``/``MIN`` updates, a fold.  Such a loop
executes here as numpy lane operations over the global arrays, one
lane per iteration: no ranks, no ownership, no clocks.  The argument
holds for both loops of a perfect nest, so when the one inner loop
carries no value either (:func:`~repro.codegen.veceval._serial_axis`)
the nest is *flattened*: every statement runs once over the outer x
inner lanes, outer-major — program order, which is also the order of
the folds.  Any other loop nested in a taken loop runs serially with a
scalar index and lane-vector values, which is the legal interchange of
a column sweep (``D(i,j)`` from ``D(i-1,j)``): the parallel outer ``j``
becomes the lane axis, the serial inner ``i`` runs as written.

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
    _serial_axis,
    _stmt_array_refs,
)

_MISSING = object()


def _walks(form, name: str, others) -> bool:
    """The subscript varies with loop index ``name`` and with none of
    ``others``: distinct values of ``name``, distinct elements —
    whatever the others are."""
    names = {sym.name for sym, c in form.coeffs if c and sym.value is None}
    return name in names and not names & others


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

        forms: dict[int, list] = {}
        stores = []
        #: store scalars the subscripts read (never written in the body)
        self.subscript_scalars: set[str] = set()
        for s in assigns:
            reason = _check_affine_refs(s)
            if reason is not None:
                raise _Bail(reason)
            for ref in _stmt_array_refs(s):
                forms[ref.ref_id] = [affine_form(sub) for sub in ref.subscripts]
                for form in forms[ref.ref_id]:
                    for sym, _c in form.coeffs:
                        if sym.value is not None or sym.is_loop_var:
                            continue
                        if sym.name in written:
                            raise _Bail(
                                f"subscript depends on body-written "
                                f"scalar {sym.name}"
                            )
                        self.subscript_scalars.add(sym.name)
            if isinstance(s.lhs, ArrayElemRef):
                stores.append(forms[s.lhs.ref_id])
                if not any(_walks(f, v, inner_vars) for f in stores[-1]):
                    raise _Bail(
                        f"store to {s.lhs.symbol.name} is lane-invariant"
                    )

        #: the inner loop whose iterations are lanes too: the body is
        #: that loop alone, it carries no value, and every store keeps
        #: the lane pairs apart — one subscript walks with the outer
        #: index only (above), another with the inner index only
        self.flat = None
        perfect = len(inner) == 1 == sum(
            not isinstance(s, ContinueStmt) for s in loop.body
        )
        if perfect and all(
            any(_walks(f, inner[0].var.name, {v}) for f in fs) for fs in stores
        ) and not _serial_axis(proc, inner[0], assigns):
            self.flat = inner[0]
        lane_vars = [loop.var] + ([self.flat.var] if self.flat else [])
        #: ref_id -> per dimension the affine form and its nonzero
        #: (coefficient, lane axis) pairs; then how the reference
        #: selects its lanes: when each lane axis walks one dimension
        #: of its own, by slices — a view, its axes in dimension order,
        #: and whether that is lane order transposed — else (a
        #: diagonal, a reference that leaves a lane axis out) by index
        #: vectors that broadcast to the lane shape
        self.forms: dict[int, tuple] = {}
        for ref_id, fs in forms.items():
            dims = [
                (f, [(c, a) for a, var in enumerate(lane_vars)
                     if (c := f.coeff(var))])
                for f in fs
            ]
            walkers = [[a for _c, a in walk] for _f, walk in dims if walk]
            sliced = sorted(walkers) == [[a] for a in range(len(lane_vars))]
            self.forms[ref_id] = dims, sliced, sliced and walkers != sorted(walkers)
        self.folds = self._scalar_roles(
            assigns, written, innermost=not inner or self.flat is not None
        )
        reason = _carried_dependence(proc, loop, assigns, inner_vars=inner_vars)
        if reason is not None:
            raise _Bail(reason)

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
        #: the lanes, one axis per lane loop (outermost first): their
        #: shape, each axis' (step, trips) and position vector, and the
        #: loop indices' lane vectors — all broadcasting to ``shape``
        self.shape: tuple = ()
        self.axes: list[tuple] = []
        self.k: list[np.ndarray] = []
        self.iv: dict[str, np.ndarray] = {}
        #: subscripts are evaluated on the first lane (``_index``)
        self.first: dict[str, int] = {}
        self._env = dict(env)
        self.lanes: dict[str, np.ndarray] = {}
        self.folded: dict[str, object] = {}
        self.journal: list[tuple] = []
        #: statement instances / inner-loop iterations of one lane of
        #: the taken loop
        self.steps = 0
        self.iterations = 0
        self._axis(plan.v, low, step, n)

    def _axis(self, name: str, low: int, step: int, n: int) -> None:
        """``name`` runs ``low, low + step, ...`` over ``n`` lanes,
        inside the lane axes there already are."""
        k = np.arange(n)
        self.shape += (n,)
        self.axes.append((step, n))
        self.k = [kk[:, None] for kk in self.k] + [k]
        self.iv = {nm: vec[:, None] for nm, vec in self.iv.items()}
        self.iv[name] = low + step * k
        self.first[name] = low

    # -- _Ctx ----------------------------------------------------------

    def loop_vec(self, name: str):
        return self.iv.get(name)

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
        index, swap = self._index(ref)
        data = self.store.arrays[ref.symbol.name][index]
        return (data.T if swap else data), data.dtype.kind in "bi"

    # -- execution -----------------------------------------------------

    def _index(self, ref: ArrayElemRef) -> tuple:
        """Bounds-checked numpy index of ``ref`` over the lanes — an
        affine subscript is in bounds on every lane iff it is at both
        ends of its range over them — and whether it selects the lanes
        transposed.  Lane-invariant dimensions are ints; the walking
        ones slices (a view) or index vectors (``_Plan.forms``)."""
        dims, sliced, swap = self.plan.forms[ref.ref_id]
        symbol = ref.symbol
        offs = []
        for dim, (form, walk) in enumerate(dims):
            index = _affine_vec(form, self.first, self._env)
            below = above = 0
            for c, a in walk:
                step, n = self.axes[a]
                reach = c * step * (n - 1)
                if reach < 0:
                    below += reach
                else:
                    above += reach
            off = _bounds_checked_offset(index + below, symbol, dim) - below
            if not walk:
                offs.append(off)
                continue
            _bounds_checked_offset(index + above, symbol, dim)
            if sliced:  # one lane axis walks this dimension
                (c, a), = walk
                step, n = self.axes[a]
                stride = c * step
                stop = off + stride * n
                offs.append(slice(off, stop if stop >= 0 else None, stride))
            else:
                offs.append(off + sum(
                    c * self.axes[a][0] * self.k[a] for c, a in walk
                ))
        return tuple(offs), swap

    def _assign(self, stmt: AssignStmt) -> None:
        lhs = stmt.lhs
        name = lhs.symbol.name
        fold = self.plan.folds.get(stmt.stmt_id)
        if fold is not None:
            self.folded[name] = self._fold(lhs, *fold)
            return
        value, is_int = _eval(stmt.rhs, self)
        vec = _coerce_vec(value, is_int, lhs.symbol.type, self.shape)
        if isinstance(lhs, ScalarRef):
            self.lanes[name] = vec
            return
        array = self.store.arrays[name]
        index, swap = self._index(lhs)
        self.journal.append((array, index, array[index].copy()))
        array[index] = vec.T if swap else vec

    def _fold(self, acc: ScalarRef, op: str, operand):
        """``acc = acc OP e`` over the lanes, in iteration order
        (outer-major)."""
        seed, seed_int = self.read_scalar(acc)
        value, is_int = _eval(operand, self)
        value = np.broadcast_to(value, self.shape).ravel()
        result = _fold_lanes(
            op, seed, value, is_int and seed_int, acc.symbol.type, value.size
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
                if s is self.plan.flat:
                    trips = (high - low + step) // step
                    if trips < 1:
                        raise _Bail("zero-trip inner loop")
                    # every trip at once: each statement over all lanes
                    self._axis(name, low, step, trips)
                    self.iterations += trips
                    self.steps += (trips - 1) * len(s.body)
                    self.run(s.body)
                    index += trips * step
                else:
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
            scalars[name] = vec.item(-1)
        for name, result in self.folded.items():
            scalars[name] = result.item()
        for name in self.plan.inner_vars:
            if name in self._env:
                env[name] = self._env[name]


class SeqVectorizer:
    """``run_loop`` takeover of the lowered sequential hooks."""

    def __init__(self, hooks, stats, metrics=None):
        self.hooks = hooks
        self.store = hooks.store
        self.stats = stats
        self.metrics = metrics
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
            if self.metrics is not None:
                self.metrics.inc(f"seq.bail[{why}]")
            return False
        ctx.commit(env)
        self.taken += 1
        if self.metrics is not None:
            self.metrics.inc(f"seq.takeover[loop=S{stmt.stmt_id}]")
        stats.statements_executed += n * ctx.steps
        stats.loop_iterations += n * ctx.iterations
        return True
