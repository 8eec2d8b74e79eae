"""The one vector expression evaluator, and the one nest shape.

Rank-free value kernels shared by the slab plans of
:mod:`repro.machine.slabexec` (tier 3 of the simulator) and the
vectorized sequential reference (:mod:`repro.codegen.seqvec`): a
whitelisted, bit-for-bit-safe numpy twin of ``eval_expr`` over lane
vectors, the affine subscript kernels, fold-operand recognition and the
loop-carried dependence test.  Everything here is a pure function of
expressions, lane vectors and a :class:`_Ctx` that says where scalar
and array values come from — no ranks, no ownership, no clocks.

Both engines start a loop's plan from its :func:`nest_shape` — the IR
facts of the nest, derived once, or the first IR reason the loop is
not one data-parallel operation — and add only their own rules.

Anything whose result could differ from the per-iteration interpreter
(a zero divisor, an out-of-bounds subscript, an intrinsic numpy does
not round like libm) raises :class:`_Bail`; the caller then executes
nothing and falls back to the per-iteration path.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reductions import match_maxloc
from ..errors import InterpreterError
from ..ir.expr import (
    AffineForm,
    ArrayElemRef,
    BinOp,
    Const,
    IntrinsicCall,
    ScalarRef,
    UnOp,
)
from ..ir.stmt import AssignStmt, ContinueStmt, IfStmt, LoopStmt
from ..ir.symbols import ScalarType


class _Bail(Exception):
    """This takeover declines; nothing has been mutated."""


#: the affine form of a loop without a step
_UNIT_STEP = AffineForm(coeffs=(), const=1)


#: what a bound expression can legitimately raise at evaluation time
#: (mirrors lowering's ``_FOLD_ERRORS``): the interpreter's canonical
#: errors plus numeric-domain failures.  Genuine programming errors —
#: NameError, TypeError, AttributeError — must propagate, not bail.
_BOUND_ERRORS = (InterpreterError, ArithmeticError, ValueError, OverflowError)


def _canon_form(form) -> tuple:
    """Hashable normal form of an affine subscript, comparable across
    refs: (const, sorted (symbol name, coeff) pairs)."""
    return (
        form.const,
        tuple(sorted((s.name, c) for s, c in form.coeffs if c != 0)),
    )


def _mentions(form, *names: str) -> bool:
    """The affine form varies with one of the (non-constant) symbols
    ``names``."""
    return any(
        sym.value is None and sym.name in names for sym, _c in form.coeffs
    )


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------
#
# Values are numpy arrays (one lane per iteration) or python/numpy
# scalars; ``is_int`` tracks Fortran INTEGER-ness so division picks the
# toward-zero semantics exactly like the interpreter's dynamic types.


#: integer lanes are int64 where the interpreter's integers are
#: unbounded: sums of operands below 2**62 and products of operands
#: below 2**31 cannot wrap, anything larger bails to the interpreter
_INT_SAFE = 2**62
_INT_MUL_SAFE = 2**31


def _check_int64(values, limit: int) -> None:
    for v in values:
        if isinstance(v, np.ndarray):
            if v.size and max(-int(v.min()), int(v.max())) >= limit:
                raise _Bail("INTEGER lanes may exceed int64")
        elif not -limit < v < limit:
            raise _Bail("INTEGER lanes may exceed int64")


def _vec_idiv(left, right):
    la = np.asarray(left, dtype=np.int64)
    ra = np.asarray(right, dtype=np.int64)
    if np.any(ra == 0):
        raise _Bail("integer division by zero")
    q = np.floor_divide(la, ra)
    q = q + ((q < 0) & (q * ra != la))
    return q


def _as_bool(value):
    return np.asarray(value) != 0


class _Ctx:
    """Evaluation context: resolves loop variables, scalars and array
    reads for one lane set.  Subclassed by the plans."""

    def loop_vec(self, name: str):
        raise NotImplementedError

    @property
    def env(self):
        raise NotImplementedError

    def read_scalar(self, ref: ScalarRef):
        raise NotImplementedError

    def read_array(self, ref: ArrayElemRef):
        raise NotImplementedError


def _eval(expr, ctx: _Ctx):
    """Vectorized twin of ``eval_expr``: returns (value, is_int).
    Anything outside the bit-for-bit-safe whitelist raises _Bail."""
    if isinstance(expr, Const):
        v = expr.value
        # bool is an int subclass, exactly as the tree walker's dynamic
        # typing sees it
        return v, isinstance(v, int)
    if isinstance(expr, ScalarRef):
        sym = expr.symbol
        if sym.value is not None:
            v = sym.value
            return v, isinstance(v, int)
        if sym.is_loop_var:
            lv = ctx.loop_vec(sym.name)
            if lv is not None:
                return lv, True
            if sym.name in ctx.env:
                return ctx.env[sym.name], True
        return ctx.read_scalar(expr)
    if isinstance(expr, ArrayElemRef):
        return ctx.read_array(expr)
    if isinstance(expr, UnOp):
        v, vi = _eval(expr.operand, ctx)
        if expr.op == "-":
            return -v, vi
        if expr.op == ".NOT.":
            if isinstance(v, np.ndarray):
                return ~_as_bool(v), False
            return not v, False
        raise _Bail(f"unary op {expr.op}")
    if isinstance(expr, BinOp):
        le, li = _eval(expr.left, ctx)
        re, ri = _eval(expr.right, ctx)
        op = expr.op
        if op in ("+", "-", "*") and li and ri:
            _check_int64((le, re), _INT_MUL_SAFE if op == "*" else _INT_SAFE)
        if op == "+":
            return le + re, li and ri
        if op == "-":
            return le - re, li and ri
        if op == "*":
            return le * re, li and ri
        if op == "/":
            if li and ri:
                return _vec_idiv(le, re), True
            if np.any(np.asarray(re) == 0):
                raise _Bail("division by zero")
            return le / re, False
        if op == "==":
            return le == re, False
        if op == "/=":
            return le != re, False
        if op == "<":
            return le < re, False
        if op == "<=":
            return le <= re, False
        if op == ">":
            return le > re, False
        if op == ">=":
            return le >= re, False
        # .AND./.OR. evaluate both operands (so do both lower tiers)
        if op == ".AND.":
            return _as_bool(le) & _as_bool(re), False
        if op == ".OR.":
            return _as_bool(le) | _as_bool(re), False
        raise _Bail(f"binary op {op}")
    if isinstance(expr, IntrinsicCall):
        return _eval_intrinsic(expr, ctx)
    raise _Bail(f"expression {type(expr).__name__}")


def _eval_intrinsic(expr, ctx):
    name = expr.name
    evaluated = [_eval(a, ctx) for a in expr.args]
    vals = [v for v, _ in evaluated]
    ints = [i for _, i in evaluated]
    if name == "ABS":
        v = vals[0]
        return (np.abs(v) if isinstance(v, np.ndarray) else abs(v)), ints[0]
    if name in ("MAX", "MIN"):
        if any(ints) and not all(ints):
            # python's max/min return the winning *argument*, so the
            # result's type would vary lane by lane
            raise _Bail(f"mixed INTEGER/REAL {name}")
        # python keeps the earlier argument on a tie (-0.0 vs 0.0) and
        # on an unordered pair (NaN); np.maximum/np.minimum do not
        acc = vals[0]
        for v in vals[1:]:
            take = v > acc if name == "MAX" else v < acc
            if isinstance(take, np.ndarray):
                acc = np.where(take, v, acc)
            elif take:
                acc = v
        return acc, all(ints)
    if name == "SQRT":
        v = np.asarray(vals[0], dtype=np.float64)
        if np.any(v < 0):
            raise _Bail("SQRT of negative value")
        out = np.sqrt(v)
        return (out if isinstance(vals[0], np.ndarray) else float(out)), False
    if name == "MOD":
        if np.any(np.asarray(vals[1]) == 0):
            raise _Bail("MOD by zero")
        return vals[0] % vals[1], all(ints)
    if name == "SIGN":
        return np.copysign(vals[0], vals[1]), False
    if name in ("REAL", "FLOAT", "DBLE"):
        v = vals[0]
        if isinstance(v, np.ndarray):
            return v.astype(np.float64), False
        return float(v), False
    # EXP/LOG/SIN/COS: numpy's SIMD paths are not guaranteed to match
    # libm bit for bit; INT truncation and ** likewise stay scalar.
    raise _Bail(f"intrinsic {name}")


def _coerce_vec(value, is_int, stype: ScalarType, n: int) -> np.ndarray:
    """``coerce_store`` over a whole lane vector, broadcast to n."""
    if stype is ScalarType.INT:
        if not is_int:
            raise _Bail("REAL value stored to INTEGER")
        out = np.empty(n, dtype=np.int64)
        out[...] = value
        return out
    if stype is ScalarType.LOGICAL:
        out = np.empty(n, dtype=np.bool_)
        out[...] = _as_bool(value)
        return out
    out = np.empty(n, dtype=np.float64)
    out[...] = value
    return out


# ---------------------------------------------------------------------------
# Subscripts, dependences and folds
# ---------------------------------------------------------------------------


def _stmt_array_refs(stmt):
    """Every ArrayElemRef in the statement: an assignment's lhs target,
    then its rhs reads — an IF's condition reads (a subscript holding
    one is not affine, and the nest shape declines before it could
    matter)."""
    if isinstance(stmt, IfStmt):
        return [r for r in stmt.cond.refs() if isinstance(r, ArrayElemRef)]
    lhs = [stmt.lhs] if isinstance(stmt.lhs, ArrayElemRef) else []
    return lhs + [r for r in stmt.rhs.refs() if isinstance(r, ArrayElemRef)]


class NestShape:
    """The IR facts of one loop nest, as both engines start from them."""

    def __init__(self, loop, assigns, loops, guards, conds, written, forms,
                 scalars, bounds):
        self.loop = loop
        #: the nest's assignments and nested loops, in program order
        self.assigns, self.loops = assigns, loops
        #: guarded assignment stmt_id -> the IF whose branch holds it
        #: (its condition is evaluated per lane), and those IFs
        self.guards, self.conds = guards, conds
        #: the scalars the nest assigns
        self.written = written
        #: ref_id -> per dimension the affine form, of every array reference
        self.forms = forms
        #: the memory scalars the subscripts read (none of them written)
        self.subscript_scalars = scalars
        #: nested loop stmt_id -> per bound (low, high, step — an absent
        #: step is 1) the names it reads and its affine form, or None
        self.bounds = bounds


def nest_shape(loop: LoopStmt) -> NestShape | str:
    """The shape of ``loop``'s nest, or the first IR reason it is not one
    data-parallel operation."""
    assigns, loops, guards, stack = [], [], {}, loop.body[::-1]
    while stack:  # pre-order
        s = stack.pop()
        if isinstance(s, AssignStmt):
            assigns.append(s)
        elif isinstance(s, LoopStmt):
            loops.append(s)
            stack += s.body[::-1]
        elif isinstance(s, IfStmt):
            for t in s.then_body + s.else_body:
                if isinstance(t, AssignStmt):
                    assigns.append(t)
                    guards[t.stmt_id] = s
                elif not isinstance(t, ContinueStmt):
                    return f"IF branch contains {type(t).__name__}"
        elif not isinstance(s, ContinueStmt):
            return f"body contains {type(s).__name__}"
    written = {
        s.lhs.symbol.name for s in assigns if isinstance(s.lhs, ScalarRef)
    }
    bounds = {}
    for inner in loops:
        facts = bounds[inner.stmt_id] = []
        for bound, form in (
            (inner.low, inner.low_form),
            (inner.high, inner.high_form),
            (inner.step, inner.step_form),
        ):
            if bound is None:  # no step: 1
                facts.append((set(), _UNIT_STEP))
                continue
            refs = list(bound.refs())
            for ref in refs:
                if isinstance(ref, ArrayElemRef):
                    return "inner bound reads an array"
                if ref.symbol.name in written:
                    return f"inner bound depends on {ref.symbol.name}"
            names = {ref.symbol.name for ref in refs}
            facts.append((names, form))
    forms: dict[int, list] = {}
    scalars: set[str] = set()
    conds = list(dict.fromkeys(guards.values()))
    for s in conds + assigns:
        for ref in _stmt_array_refs(s):
            forms[ref.ref_id] = ref.forms
            if any(f is None for f in forms[ref.ref_id]):
                return f"non-affine subscript in {ref.symbol.name}"
            scalars.update(
                sym.name for f in forms[ref.ref_id] for sym, _c in f.coeffs
                if sym.value is None and not sym.is_loop_var
            )
        if scalars & written:
            name = min(scalars & written)
            return f"subscript depends on body-written scalar {name}"
    return NestShape(
        loop, assigns, loops, guards, conds, written, forms, scalars, bounds
    )


def _carried_dependence(proc, loop: LoopStmt, assigns, forms,
                        reduction_ids=frozenset(),
                        inner_vars=frozenset()) -> str | None:
    """Reject any possible cross-iteration flow of values through an
    array at ``loop``'s level (per :mod:`repro.analysis.dependence`);
    ``forms`` are the nest shape's, and ``assigns`` may hold the IFs
    whose conditions read arrays.

    A write/read pair sharing *some* dimension whose subscript form is
    identical, has a nonzero coefficient on the loop variable, and is
    otherwise invariant over one iteration (no in-body-written scalars,
    none of ``inner_vars`` — the variables of loops nested in ``loop``
    when ``assigns`` reaches into them) touches the same element only
    in the same iteration — that dimension witnesses distance 0 and the
    pair is allowed; anything else that ``may_depend_within_loop``
    cannot disprove is treated as loop-carried.  A recognized reduction
    update's own accumulator recurrence (write and read in the same
    update statement) is the fold being vectorized, not a rejection."""
    from ..analysis.dependence import may_depend_within_loop

    v = loop.var.name
    written_scalars = {
        s.lhs.symbol.name for s in assigns
        if isinstance(s, AssignStmt) and isinstance(s.lhs, ScalarRef)
    } | set(inner_vars)

    def zero_distance_witness(wf, of) -> bool:
        for a, b in zip(wf, of):
            if _canon_form(a) != _canon_form(b):
                continue
            if not any(
                c != 0 and sym.name == v and sym.value is None
                for sym, c in a.coeffs
            ):
                continue
            if any(
                sym.value is None and sym.name != v
                and sym.name in written_scalars
                for sym, _c in a.coeffs
            ):
                continue  # the form itself mutates mid-loop
            return True
        return False

    writes = []
    refs = []
    for s in assigns:
        if isinstance(s, AssignStmt) and isinstance(s.lhs, ArrayElemRef):
            writes.append((s, s.lhs))
        for r in _stmt_array_refs(s):
            refs.append((s, r))
    for ws, w in writes:
        w_forms = forms[w.ref_id]
        for os, o in refs:
            if o is w or o.symbol.name != w.symbol.name:
                continue
            if os is ws and ws.stmt_id in reduction_ids:
                continue  # the accumulator recurrence of a fold
            o_forms = forms[o.ref_id]
            if len(o_forms) == len(w_forms) and zero_distance_witness(
                w_forms, o_forms
            ):
                continue  # distance 0 only
            if may_depend_within_loop(proc, w, o, loop):
                return f"loop-carried dependence on {w.symbol.name}"
    return None


def _serial_axis(proc, inner: LoopStmt, body, forms,
                 reduction_ids=frozenset()) -> bool:
    """The inner loop of a nest is its *serial axis* — run trip by
    trip, each statement still one vector over the outer iterations —
    exactly when a value flows from one of its iterations to the next;
    otherwise its iterations are lanes too and the nest is flattened.
    Both engines decide it here, so a nest flattens in both or in
    neither."""
    return bool(_carried_dependence(proc, inner, body, forms, reduction_ids))


_RED_UFUNC = {
    "+": np.add,
    "*": np.multiply,
    "MAX": np.maximum,
    "MIN": np.minimum,
}


def _fold_operand(rhs, op: str, acc: str, is_acc):
    """``acc OP e`` / ``MAX(acc, e)`` → ``e`` (both orderings; + and *
    are bitwise commutative in IEEE), or None; ``is_acc(expr)`` says
    whether an operand is the accumulator, and ``e`` may not read the
    variable ``acc`` at all."""
    if op in ("+", "*") and isinstance(rhs, BinOp) and rhs.op == op:
        pair = (rhs.left, rhs.right)
    elif (
        op in ("MAX", "MIN")
        and isinstance(rhs, IntrinsicCall)
        and rhs.name == op
        and len(rhs.args) == 2
    ):
        pair = tuple(rhs.args)
    else:
        return None
    e = pair[1] if is_acc(pair[0]) else pair[0] if is_acc(pair[1]) else None
    if e is None or any(ref.symbol.name == acc for ref in e.refs()):
        return None  # acc on both sides: not a fold
    return e


def _reduction_operand(rhs, acc: str, op: str):
    """``acc = acc OP e`` / ``acc = MAX(acc, e)`` → ``e``, or None."""

    def is_acc(e):
        return isinstance(e, ScalarRef) and e.symbol.name == acc

    return _fold_operand(rhs, op, acc, is_acc)


def _fold_lanes(op: str, start, value, is_int: bool, stype: ScalarType,
                n: int):
    """``acc = acc OP e`` over ``n`` lanes in iteration order, seeded
    with ``start``: ``ufunc.accumulate`` is strictly sequential, unlike
    pairwise ``np.sum``, so this is the floating-point result the
    per-iteration updates produce."""
    integer = stype is ScalarType.INT
    if integer and not is_int:
        raise _Bail("REAL fold into INTEGER accumulator")
    buf = np.empty(n + 1, dtype=np.int64 if integer else np.float64)
    buf[0] = start
    buf[1:] = value
    result = _RED_UFUNC[op].accumulate(buf)[-1]
    if integer and op in ("+", "*"):
        # int64 wraps where python integers grow; the same fold in
        # floating point tells the true magnitude
        shadow = _RED_UFUNC[op].accumulate(buf.astype(np.float64))[-1]
        if not abs(shadow) < _INT_SAFE:
            raise _Bail("INTEGER fold may exceed int64")
    return result


#: ``e REL acc`` read the other way round
_REL_FLIP = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


def masked_fold(guard: IfStmt):
    """The guarded MAXLOC/MINLOC update the reduction analysis
    recognizes (:func:`~repro.analysis.reductions.match_maxloc`) as
    ``(rel, acc, e, stmts)``: ``rel`` read as ``e REL acc``, ``acc``
    the condition's accumulator reference, ``stmts`` the branch's
    assignments; or None.  ``e`` and every location are lane values."""
    reduction = match_maxloc(guard, guard.loop)
    if reduction is None:
        return None
    cond, stmts = guard.cond, reduction.update_stmts
    if isinstance(cond.right, ScalarRef) and (
        cond.right.symbol.name == reduction.symbol.name
    ):
        return cond.op, cond.right, cond.left, stmts
    return _REL_FLIP[cond.op], cond.left, cond.right, stmts


_REL = {">": np.greater, ">=": np.greater_equal, "<": np.less,
        "<=": np.less_equal}


def _masked_lanes(rel: str, seed, value, is_int: bool, seed_int: bool,
                  n: int):
    """``IF (v REL acc) acc = v`` over ``n`` lanes in iteration order,
    seeded with ``seed``: the lanes whose guard holds, and the last of
    them (-1: none) — where the final ``acc`` and every location are
    taken.  Exact: the running extreme over ``[seed, v1 .. vn-1]`` is
    strictly sequential (``ufunc.accumulate``) and skips NaN lanes,
    which no comparison admits; it equals the per-iteration ``acc`` in
    value (a zero's sign aside, which no comparison sees), so each
    lane's guard is the one the interpreter evaluates.  A NaN seed
    admits no lane at all."""
    if is_int != seed_int:
        # numpy compares INTEGER lanes with REAL ones in floating point
        raise _Bail("mixed INTEGER/REAL guarded fold")
    if seed != seed:
        return np.zeros(n, dtype=np.bool_), -1
    buf = np.empty(n, dtype=np.int64 if is_int else np.float64)
    buf[0] = seed
    buf[1:] = value[:-1] if isinstance(value, np.ndarray) else value
    running = np.fmax if rel[0] == ">" else np.fmin
    mask = _REL[rel](value, running.accumulate(buf))
    hits = mask.nonzero()[0]
    return mask, int(hits[-1]) if hits.size else -1


def _affine_vec(form, vec_vars: dict, env, symbol=None, dim=None):
    """Evaluate an affine form over the lanes: returns an int or an
    int64 vector.  ``vec_vars`` maps loop-var name -> lane vector."""
    total = form.const
    vec = None
    for sym, coeff in form.coeffs:
        if sym.value is not None:
            total += coeff * int(sym.value)
            continue
        lanes = vec_vars.get(sym.name)
        if lanes is not None:
            contrib = coeff * lanes
            vec = contrib if vec is None else vec + contrib
            continue
        if sym.name in env:
            total += coeff * int(env[sym.name])
            continue
        raise _Bail(f"unresolved subscript symbol {sym.name}")
    return total if vec is None else vec + total


def _bounds_checked_offset(idx, symbol, dim: int):
    lo, hi = symbol.dims[dim]
    if isinstance(idx, np.ndarray):
        if idx.size and (int(idx.min()) < lo or int(idx.max()) > hi):
            raise _Bail(f"subscript out of bounds for {symbol.name}")
    elif not lo <= idx <= hi:
        raise _Bail(f"subscript out of bounds for {symbol.name}")
    return idx - lo
