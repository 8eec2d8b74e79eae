"""One-time lowering of IR statements to cached Python closures — the
hot path of both execution back ends.

The tree-walking evaluator re-dispatches an ``isinstance`` chain per
expression node per iteration per rank. This module removes that work
once, at lowering time:

* **Expressions** become Python source, ``compile()``d by the first
  lookup of the statement's closure (:class:`_Closures`).
  Constant subtrees fold (through the same ``_apply_binop`` /
  ``_apply_intrinsic`` the interpreter uses, so folded values are
  bit-identical), intrinsics inline to direct calls, and subscript
  bounds checks become inline comparisons whose failure path raises the
  interpreter's exact error. Each statement becomes one closure
  ``fn(R, env)`` parameterized over a :class:`ValueReader`-shaped
  reader, so the SPMD simulator and the sequential interpreter share
  the lowered form.
* **Executor sets** (:class:`ExecutorTables`) lower each statement's
  owner-computes position to per-grid-dim coordinate closures over
  precomputed ``fmt.owner`` tables: the per-iteration
  ``_eval_form``/``_ranks_of_position`` recomputation becomes O(1)
  table lookups parameterized only by the enclosing loop indices.
* **Fetches** (:class:`FetchEngine`) resolve sources through
  precomputed owner tables and are charged by the simulator's one
  ``_charge_fetch`` (one startup per placement instance plus
  per-element bandwidth — identical clock totals by construction).

A compiled program keeps its lowered form as derived state
(:attr:`~repro.core.driver.CompiledProgram.lowering`): any
``finalize()`` after an IR transform bumps ``proc.ir_epoch`` and the
next read lowers again. Statements the lowerer cannot handle simply stay
interpreted — the fast path falls back per statement, never changing
semantics. ``SPMDSimulator(..., tier="interpreted")`` bypasses the
module entirely; the parity tests use that tier to assert bit-for-bit
identity of results, clocks, and traffic statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..codegen.evalexpr import (
    _apply_binop,
    _apply_intrinsic,
    coerce_store,
    eval_expr,
    fortran_int_div,
)
from ..codegen.walker import ExecutionHooks
from ..comm.costmodel import flops_of_expr
from ..core.mapping_kinds import ReductionMapping
from ..errors import InterpreterError, SimulationError
from ..ir.expr import (
    ArrayElemRef,
    BinOp,
    Const,
    Expr,
    IntrinsicCall,
    ScalarRef,
    UnOp,
)
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt
from ..ir.symbols import ScalarType

_MISS = object()


# ---------------------------------------------------------------------------
# Runtime helpers referenced by generated code
# ---------------------------------------------------------------------------


def _idiv(left: int, right: int) -> int:
    if right == 0:
        raise InterpreterError("integer division by zero")
    return fortran_int_div(left, right)


def _div(left, right):
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise InterpreterError("integer division by zero")
        return fortran_int_div(left, right)
    if right == 0:
        raise InterpreterError("division by zero")
    return left / right


def _unop(op, value):
    raise InterpreterError(f"unknown unary op {op!r}")


def _oob(symbol, index):
    """Raise the interpreter's exact subscript error for the first
    out-of-bounds dimension of ``index``."""
    for dim, idx in enumerate(index):
        low, high = symbol.dims[dim]
        if not low <= idx <= high:
            raise InterpreterError(
                f"subscript {idx} out of bounds {low}:{high} for "
                f"{symbol.name} dim {dim + 1}"
            )
    raise InterpreterError(f"subscript check failed for {symbol.name}{index}")


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


class _CannotLower(Exception):
    """This expression/statement stays interpreted."""


class _NoFold(Exception):
    """Constant folding declined (e.g. non-finite float literal)."""


#: what a best-effort constant fold may swallow: fold-declined
#: (``_NoFold``), values the interpreter itself would reject at run
#: time (``InterpreterError``: constant division by zero, unknown
#: intrinsic), and numeric-domain errors.  Genuine programming errors
#: (NameError, TypeError, ...) propagate.
_FOLD_ERRORS = (
    _NoFold,
    InterpreterError,
    ArithmeticError,
    ValueError,
    OverflowError,
)

#: what statement-level lowering may swallow before falling back to the
#: interpreter: "stay interpreted" signals plus the fold error set
_LOWER_ERRORS = (_CannotLower,) + _FOLD_ERRORS


class _Emitted:
    __slots__ = ("code", "is_const", "value", "is_int")

    def __init__(self, code, is_const=False, value=None, is_int=False):
        self.code = code
        self.is_const = is_const
        self.value = value
        self.is_int = is_int


_CMP_OPS = {"==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_MATH_INTRINSICS = {
    "SQRT": "_sqrt",
    "EXP": "_exp",
    "LOG": "_log",
    "SIN": "_sin",
    "COS": "_cos",
}


class _ExprCompiler:
    """Emits Python source for IR expressions into a shared globals
    dict. Folded constants go through the interpreter's own arithmetic
    so values agree bit-for-bit; anything it cannot handle raises
    :class:`_CannotLower` and the statement stays interpreted."""

    def __init__(self, glb: dict):
        self.glb = glb
        self._temp = 0

    def _ref_name(self, ref) -> str:
        name = f"_r{ref.ref_id}"
        self.glb[name] = ref
        return name

    def _sym_name(self, symbol) -> str:
        name = f"_sy_{symbol.name}"
        self.glb[name] = symbol
        return name

    def _const(self, value) -> _Emitted:
        if isinstance(value, float) and not math.isfinite(value):
            raise _NoFold  # repr() would not round-trip as a literal
        return _Emitted(
            repr(value),
            is_const=True,
            value=value,
            is_int=isinstance(value, int) and not isinstance(value, bool),
        )

    def emit(self, expr: Expr) -> _Emitted:
        if isinstance(expr, Const):
            return self._const(expr.value)
        if isinstance(expr, ScalarRef):
            return self._scalar_read(expr)
        if isinstance(expr, ArrayElemRef):
            r = self._ref_name(expr)
            idx = self.index_code(expr)
            return _Emitted(
                f"R.read_array({r}, {idx}, env)",
                is_int=expr.symbol.type is ScalarType.INT,
            )
        if isinstance(expr, UnOp):
            return self._unop(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, IntrinsicCall):
            return self._intrinsic(expr)
        raise _CannotLower(f"cannot lower {expr!r}")

    def _scalar_read(self, expr: ScalarRef) -> _Emitted:
        symbol = expr.symbol
        if symbol.value is not None:
            try:
                return self._const(symbol.value)
            except _NoFold:
                pass
        r = self._ref_name(expr)
        is_int = symbol.type is ScalarType.INT
        if symbol.value is not None:
            # non-foldable constant value: keep the interpreter's lookup
            sy = self._sym_name(symbol)
            return _Emitted(f"{sy}.value", is_int=is_int)
        if symbol.is_loop_var:
            key = repr(symbol.name)
            return _Emitted(
                f"(env[{key}] if {key} in env else R.read_scalar({r}, env))",
                is_int=is_int,
            )
        return _Emitted(f"R.read_scalar({r}, env)", is_int=is_int)

    def _unop(self, expr: UnOp) -> _Emitted:
        x = self.emit(expr.operand)
        if expr.op == "-":
            if x.is_const:
                try:
                    return self._const(-x.value)
                except _NoFold:
                    pass
            return _Emitted(f"(-{x.code})", is_int=x.is_int)
        if expr.op == ".NOT.":
            if x.is_const:
                return self._const(not x.value)
            return _Emitted(f"(not {x.code})")
        return _Emitted(f"_unop({expr.op!r}, {x.code})")

    def _binop(self, expr: BinOp) -> _Emitted:
        l = self.emit(expr.left)
        r = self.emit(expr.right)
        op = expr.op
        if l.is_const and r.is_const:
            try:
                return self._const(_apply_binop(op, l.value, r.value))
            except _FOLD_ERRORS:  # fold is best-effort; runtime raises instead
                pass
        if op in ("+", "-", "*"):
            return _Emitted(
                f"({l.code} {op} {r.code})", is_int=l.is_int and r.is_int
            )
        if op == "/":
            if l.is_int and r.is_int:
                return _Emitted(f"_idiv({l.code}, {r.code})", is_int=True)
            return _Emitted(f"_div({l.code}, {r.code})")
        if op == "**":
            return _Emitted(f"({l.code} ** {r.code})")
        if op in _CMP_OPS:
            return _Emitted(f"({l.code} {_CMP_OPS[op]} {r.code})")
        # .AND./.OR. must evaluate both operands (the interpreter does,
        # and skipping one could skip a fetch) — bitwise on bools
        if op == ".AND.":
            return _Emitted(f"(bool({l.code}) & bool({r.code}))")
        if op == ".OR.":
            return _Emitted(f"(bool({l.code}) | bool({r.code}))")
        return _Emitted(f"_binop({op!r}, {l.code}, {r.code})")

    def _intrinsic(self, expr: IntrinsicCall) -> _Emitted:
        args = [self.emit(a) for a in expr.args]
        name = expr.name
        if args and all(a.is_const for a in args):
            try:
                return self._const(
                    _apply_intrinsic(name, [a.value for a in args])
                )
            except _FOLD_ERRORS:
                pass
        codes = ", ".join(a.code for a in args)
        all_int = all(a.is_int for a in args)
        if name == "ABS":
            return _Emitted(f"abs({args[0].code})", is_int=args[0].is_int)
        if name in ("MAX", "MIN"):
            fn = name.lower()
            if len(args) == 1:  # max([x]) == x
                return args[0]
            return _Emitted(f"{fn}({codes})", is_int=all_int)
        if name in _MATH_INTRINSICS:
            return _Emitted(f"{_MATH_INTRINSICS[name]}({args[0].code})")
        if name == "MOD":
            return _Emitted(f"({args[0].code} % {args[1].code})", is_int=all_int)
        if name == "SIGN":
            return _Emitted(f"_copysign({args[0].code}, {args[1].code})")
        if name == "INT":
            return _Emitted(f"int({args[0].code})", is_int=True)
        if name in ("REAL", "FLOAT", "DBLE"):
            return _Emitted(f"float({args[0].code})")
        return _Emitted(f"_intr({name!r}, [{codes}])")

    def index_code(self, ref: ArrayElemRef) -> str:
        """Inline ``eval_subscripts``: evaluate every subscript (in
        order, with any side effects), then bounds-check. The checks
        chain with ``&`` — not ``and`` — so every walrus binds even when
        an early check fails, and the error path (``_oob``) raises the
        interpreter's exact message for the first bad dimension."""
        symbol = ref.symbol
        temps: list[str] = []
        checks: list[str] = []
        for dim, sub in enumerate(ref.subscripts):
            e = self.emit(sub)
            code = e.code if e.is_int else f"int({e.code})"
            t = f"_t{self._temp}"
            self._temp += 1
            temps.append(t)
            low, high = symbol.dims[dim]
            checks.append(f"({low} <= ({t} := {code}) <= {high})")
        tup = "(" + ", ".join(temps) + ("," if len(temps) == 1 else "") + ")"
        cond = " & ".join(checks) if len(checks) > 1 else checks[0]
        sy = self._sym_name(symbol)
        return f"({tup} if {cond} else _oob({sy}, {tup}))"

    def store_code(self, emitted: _Emitted, symbol_type: ScalarType) -> str:
        """Fortran assignment conversion (``coerce_store``), inlined."""
        if emitted.is_const:
            return repr(coerce_store(emitted.value, symbol_type))
        if symbol_type is ScalarType.INT:
            return emitted.code if emitted.is_int else f"int({emitted.code})"
        if symbol_type is ScalarType.REAL:
            return f"float({emitted.code})"
        return f"bool({emitted.code})"


# ---------------------------------------------------------------------------
# Lowered procedure
# ---------------------------------------------------------------------------


class _Source(tuple):
    """``(globals, name, source, label)`` of a closure not compiled yet."""


class _Built(dict):
    """key -> what ``table.get(key)`` returned, asked once per key."""

    def __init__(self, table):
        self.table = table

    def __missing__(self, key):
        fn = self[key] = self.table.get(key)
        return fn


class _Closures(dict):
    """key -> ``fn(R, env)``, held as its emitted :class:`_Source` until
    the first lookup of the key — ``get`` and ``[]`` alike — compiles
    it: a statement inside a nest that every engine takes whole never
    pays ``compile()``.  The per-instance lookups of a run go through
    ``built[key]`` (``None``: no closure), the C dict's on every hit."""

    def __init__(self):
        self.built = _Built(self)

    def get(self, key, default=None):
        fn = dict.get(self, key, default)
        if fn.__class__ is _Source:
            glb, name, src, label = fn
            exec(compile(src, f"<lowered:{label}>", "exec"), glb)
            fn = self[key] = glb[name]
            CLOSURE_COUNTS["lowering.closures_built"] += 1
        return fn

    def __getitem__(self, key):
        fn = self.get(key, _MISS)
        if fn is _MISS:
            raise KeyError(key)
        return fn


@dataclass
class LoweredIR:
    """Per-procedure lowering result: one closure per statement the
    lowerer could emit. A missing entry means "stay interpreted"."""

    proc: Any
    ir_epoch: int
    #: stmt_id -> fn(R, env) -> (index-or-None, coerced value)
    assigns: dict[int, Callable] = field(default_factory=_Closures)
    #: stmt_id -> (lhs symbol name, dim lower bounds or None for scalars)
    lhs_info: dict[int, tuple] = field(default_factory=dict)
    #: stmt_id -> fn(R, env) -> bool
    conds: dict[int, Callable] = field(default_factory=_Closures)
    #: id(bound expr) -> fn(R, env) -> int
    bounds: dict[int, Callable] = field(default_factory=_Closures)
    #: stmt_id -> flop count of Assign/If statements (for compute charges)
    flops: dict[int, int] = field(default_factory=dict)
    #: label -> generated source, for debugging/inspection
    sources: dict[str, str] = field(default_factory=dict)


#: closures emitted as source / compiled by a first lookup since
#: process start, under their names in the obs metrics export
CLOSURE_COUNTS = {"lowering.closures_emitted": 0, "lowering.closures_built": 0}


def _emit_fn(name: str, body: str, glb: dict, lowered: LoweredIR, label: str):
    src = f"def {name}(R, env):\n    return {body}\n"
    lowered.sources[label] = src
    CLOSURE_COUNTS["lowering.closures_emitted"] += 1
    return _Source((glb, name, src, label))


def lower_procedure(proc) -> LoweredIR:
    """Lower every statement of ``proc`` to closures (emission only:
    each closure compiles on its first lookup)."""
    glb: dict[str, Any] = {
        "InterpreterError": InterpreterError,
        "_div": _div,
        "_idiv": _idiv,
        "_sqrt": math.sqrt,
        "_exp": math.exp,
        "_log": math.log,
        "_sin": math.sin,
        "_cos": math.cos,
        "_copysign": math.copysign,
        "_intr": _apply_intrinsic,
        "_binop": _apply_binop,
        "_unop": _unop,
        "_oob": _oob,
    }
    lowered = LoweredIR(proc=proc, ir_epoch=proc.ir_epoch)
    comp = _ExprCompiler(glb)
    for stmt in proc.all_stmts():
        sid = stmt.stmt_id
        if isinstance(stmt, AssignStmt):
            lowered.flops[sid] = max(flops_of_expr(stmt.rhs), 1)
            try:
                rhs = comp.emit(stmt.rhs)
                val = comp.store_code(rhs, stmt.lhs.symbol.type)
                if isinstance(stmt.lhs, ArrayElemRef):
                    # tuple evaluation order = subscripts first, then
                    # rhs — matching the simulator's exec_assign
                    body = f"({comp.index_code(stmt.lhs)}, {val})"
                    lows = tuple(lo for lo, _ in stmt.lhs.symbol.dims)
                else:
                    body = f"(None, {val})"
                    lows = None
                lowered.assigns[sid] = _emit_fn(
                    f"_a{sid}", body, glb, lowered, f"{proc.name}:S{sid}"
                )
                lowered.lhs_info[sid] = (stmt.lhs.symbol.name, lows)
            except _LOWER_ERRORS:
                lowered.lhs_info.pop(sid, None)
        elif isinstance(stmt, IfStmt):
            lowered.flops[sid] = max(flops_of_expr(stmt.cond), 1)
            try:
                cond = comp.emit(stmt.cond)
                lowered.conds[sid] = _emit_fn(
                    f"_c{sid}",
                    f"bool({cond.code})",
                    glb,
                    lowered,
                    f"{proc.name}:S{sid}",
                )
            except _LOWER_ERRORS:
                pass
        elif isinstance(stmt, LoopStmt):
            for expr in (stmt.low, stmt.high, stmt.step):
                if expr is None or id(expr) in lowered.bounds:
                    continue
                try:
                    e = comp.emit(expr)
                    lowered.bounds[id(expr)] = _emit_fn(
                        f"_b{len(lowered.bounds)}",
                        e.code if e.is_int else f"int({e.code})",
                        glb,
                        lowered,
                        f"{proc.name}:S{sid}:bound{len(lowered.bounds)}",
                    )
                except _LOWER_ERRORS:
                    pass
    return lowered


# ---------------------------------------------------------------------------
# Executor tables
# ---------------------------------------------------------------------------


class ExecutorTables:
    """Precomputed executor rank descriptors: owner-computes guards as
    O(1) table lookups parameterized only by enclosing loop indices."""

    def __init__(self, sim):
        self.sim = sim
        grid = sim.grid
        self.shape = grid.shape
        strides: list[int] = []
        s = 1
        for extent in reversed(grid.shape):
            strides.append(s)
            s *= extent
        #: row-major rank = sum(coord[g] * strides[g])
        self.strides = tuple(reversed(strides))
        self.all_ranks = list(grid.all_ranks())
        #: shared [rank] singletons so owner-set lookups allocate nothing
        self.singletons = [[r] for r in self.all_ranks]
        self._owner_tables: dict = {}
        self._closures: dict[int, Callable] = {}

    def owner_table(self, fmt) -> list[int]:
        table = self._owner_tables.get(fmt)
        if table is None:
            table = [fmt.owner(p) for p in range(fmt.extent)]
            self._owner_tables[fmt] = table
        return table

    def ranks(self, stmt, env) -> list[int]:
        fn = self._closures.get(stmt.stmt_id)
        if fn is None:
            fn = self._build(stmt)
            self._closures[stmt.stmt_id] = fn
        return fn(env)

    def _build(self, stmt) -> Callable:
        sim = self.sim
        compiled = sim.compiled
        info = compiled.executors[stmt.stmt_id]
        all_ranks = self.all_ranks
        # Reduction-variable statements outside the update set run
        # everywhere (mirrors SPMDSimulator.executor_ranks).
        if (
            isinstance(stmt, AssignStmt)
            and isinstance(stmt.lhs, ScalarRef)
            and stmt.stmt_id not in sim._reduction_updates
        ):
            d = compiled.ctx.ssa.def_of_lhs.get(stmt.lhs.ref_id)
            mapping = (
                compiled.scalar_pass.decisions.get(d) if d is not None else None
            )
            if isinstance(mapping, ReductionMapping):
                return lambda env: all_ranks
        if info.kind == "all":
            return lambda env: all_ranks
        return self._position_closure(info.position)

    def _position_closure(self, position) -> Callable:
        coord_fns: list[Callable | None] = []
        for dim in position:
            if dim.kind == "pos" and dim.form is not None and dim.fmt is not None:
                coord_fns.append(self._form_closure(dim.form, dim.fmt))
            else:
                coord_fns.append(None)
        strides = self.strides
        pos_dims = tuple(
            (strides[g], fn) for g, fn in enumerate(coord_fns) if fn is not None
        )
        # rank contributions of the spanning dims, in itertools.product
        # order (later grid dims vary fastest == ascending ranks)
        span_bases = [0]
        for g, fn in enumerate(coord_fns):
            if fn is None:
                stride = strides[g]
                span_bases = [
                    b + c * stride
                    for b in span_bases
                    for c in range(self.shape[g])
                ]
        if not pos_dims:
            return lambda env: span_bases
        singles = self.singletons if span_bases == [0] else None
        generic = self._generic_closure(coord_fns)

        def ranks_of(env):
            acc = 0
            for stride, fn in pos_dims:
                c = fn(env)
                if c is None:  # inactive loop var: dim spans the grid
                    return generic(env)
                acc += c * stride
            if singles is not None:
                return singles[acc]
            return [acc + b for b in span_bases]

        return ranks_of

    def _generic_closure(self, coord_fns) -> Callable:
        shape = self.shape
        strides = self.strides

        def generic(env):
            ranks = [0]
            for g, fn in enumerate(coord_fns):
                c = fn(env) if fn is not None else None
                if c is None:
                    contrib = [cc * strides[g] for cc in range(shape[g])]
                else:
                    contrib = [c * strides[g]]
                ranks = [r + cc for r in ranks for cc in contrib]
            return ranks

        return generic

    def _form_closure(self, form, fmt) -> Callable:
        """Affine position form -> owning coordinate (or None when it
        spans), with ``fmt.owner`` pre-tabulated. Mirrors
        ``SPMDSimulator._eval_form`` exactly, including the live
        lookup chain env -> symbol.value -> any valid memory copy."""
        table = self.owner_table(fmt)
        extent = fmt.extent
        const = form.const
        terms = tuple(
            (sym.name, coeff, sym.value, bool(sym.is_loop_var))
            for sym, coeff in form.coeffs
        )
        active = self.sim._active_loop_vars
        memories = self.sim.memories
        if not terms:
            if 0 <= const < extent:
                c = table[const]
                return lambda env: c
            return lambda env: fmt.owner(const)  # raises MappingError

        def coord(env):
            pos = const
            for name, coeff, value, is_loop_var in terms:
                if is_loop_var and name not in active:
                    return None
                v = env.get(name, _MISS)
                if v is _MISS:
                    if value is not None:
                        v = value
                    else:
                        v = None
                        for memory in memories:
                            if memory.scalar_valid.get(name, False):
                                v = memory.scalars[name]
                                break
                        if v is None:
                            return None
                pos += coeff * int(v)
            if 0 <= pos < extent:
                return table[pos]
            return fmt.owner(pos)  # raises the canonical MappingError

        return coord


# ---------------------------------------------------------------------------
# Fetch engine: precomputed owner tables
# ---------------------------------------------------------------------------


class _ArrayAccess:
    """Per-array fetch metadata: owner tables in ``owner_ranks`` order
    and raw storage handles."""

    def __init__(self, sim, name: str, etables: ExecutorTables):
        mapping = sim.compiled.mappings[name]
        self.mapping = mapping
        self.datas = [m.arrays[name] for m in sim.memories]
        self.valids = [m.valid[name] for m in sim.memories]
        grid = sim.grid
        strides = etables.strides
        dist = []
        for g, role in enumerate(mapping.roles):
            if role.kind == "dist":
                dist.append(
                    (
                        role.array_dim,
                        role.stride,
                        role.norm_offset,
                        etables.owner_table(role.fmt),
                        role.fmt,
                        strides[g],
                    )
                )
        self.dist = tuple(dist)
        #: the dist owner tables as index vectors, for :meth:`owners`
        self._owner_vecs = [np.asarray(d[3], dtype=np.int64) for d in dist]
        span_bases = [0]
        for g, role in enumerate(mapping.roles):
            if role.kind != "dist":
                stride = strides[g]
                span_bases = [
                    b + c * stride
                    for b in span_bases
                    for c in range(grid.shape[g])
                ]
        self.span_bases = span_bases
        self.singletons = etables.singletons if span_bases == [0] else None

    def candidates(self, index) -> list[int]:
        """Owning ranks of a global index — same order (and same OOB
        MappingError) as ``ArrayMapping.owner_ranks``."""
        acc = 0
        for array_dim, stride, noff, table, fmt, gstride in self.dist:
            pos = stride * index[array_dim] + noff
            if 0 <= pos < fmt.extent:
                acc += table[pos] * gstride
            else:
                acc += fmt.owner(pos) * gstride  # raises
        if self.singletons is not None:
            return self.singletons[acc]
        return [acc + b for b in self.span_bases]

    def owners(self, offs) -> np.ndarray:
        """Vectorized :meth:`candidates` over element *offsets* (one
        int vector per array dim): row ``c`` holds every element's
        ``c``-th owning rank, raising the same OOB MappingError."""
        lows = [lo for lo, _ in self.mapping.array.dims]
        acc = np.zeros(np.shape(offs[0]), dtype=np.int64)
        for (array_dim, stride, noff, _table, fmt, gstride), table in zip(
            self.dist, self._owner_vecs
        ):
            pos = stride * (offs[array_dim] + lows[array_dim]) + noff
            outside = (pos < 0) | (pos >= fmt.extent)
            if outside.any():
                fmt.owner(int(pos[outside][0]))  # raises
            acc += table[pos] * gstride
        return np.add.outer(np.asarray(self.span_bases, dtype=np.int64), acc)


class FetchEngine:
    """Fast-path remote reads: the interpreted ``fetch_array`` with the
    source found through precomputed owner tables and the value moved
    between raw storage handles.  The charge is the simulator's own
    ``_charge_fetch`` — one startup per coalescing key, one bandwidth
    unit per element, in the same order."""

    def __init__(self, fast: "FastPath"):
        self.sim = fast.sim
        self.etables = fast.etables
        self._access: dict[str, _ArrayAccess] = {}

    def access(self, name: str) -> _ArrayAccess:
        acc = self._access.get(name)
        if acc is None:
            acc = _ArrayAccess(self.sim, name, self.etables)
            self._access[name] = acc
        return acc

    def fetch_array(self, reader, ref, index, off, env):
        name = ref.symbol.name
        acc = self.access(name)
        valids = acc.valids
        src = None
        for owner in acc.candidates(index):
            if valids[owner][off]:
                src = owner
                break
        if src is None:
            for r in range(len(valids)):
                if valids[r][off]:
                    src = r
                    break
        stmt = reader.stmt
        rank = reader.rank
        if src is None:
            raise SimulationError(
                f"rank {rank}: {name}{index} requested but no rank holds it "
                f"(statement S{stmt.stmt_id})"
            )
        value = acc.datas[src][off].item()
        # deliver into the requesting rank's memory (= array_store)
        acc.datas[rank][off] = value
        valids[rank][off] = True
        self.sim._charge_fetch(stmt, ref.ref_id, src, rank, env)
        return value


# ---------------------------------------------------------------------------
# Fast readers and the fast path itself
# ---------------------------------------------------------------------------


class _FastReader:
    """Per-rank reader with direct storage handles — the lowered-closure
    counterpart of ``_FetchingReader``."""

    __slots__ = ("sim", "engine", "rank", "stmt", "scalars", "scalar_valid", "tables")

    def __init__(self, sim, engine: FetchEngine, rank: int):
        self.sim = sim
        self.engine = engine
        self.rank = rank
        self.stmt = None
        memory = sim.memories[rank]
        self.scalars = memory.scalars
        self.scalar_valid = memory.scalar_valid
        #: name -> (data, valid, lows) storage handles
        self.tables = {
            name: (data, memory.valid[name], memory._lows[name])
            for name, data in memory.arrays.items()
        }

    def read_scalar(self, ref, env):
        name = ref.symbol.name
        if name in env:
            return env[name]
        if self.scalar_valid.get(name, False):
            return self.scalars[name]
        return self.sim.fetch_scalar(self.rank, ref, self.stmt, env)

    def read_array(self, ref, index, env):
        arr, valid, lows = self.tables[ref.symbol.name]
        off = tuple(i - lo for i, lo in zip(index, lows))
        if valid[off]:
            return arr[off].item()
        return self.engine.fetch_array(self, ref, index, off, env)


class FastPath:
    """Wires the lowered closures, executor tables, and fetch engine to
    one simulator instance. Every statement without a lowered closure
    falls back to the simulator's interpreted execution."""

    def __init__(self, sim):
        self.sim = sim
        self.lowered = lowered = sim.compiled.lowering
        self.etables = ExecutorTables(sim)
        self.engine = FetchEngine(self)
        self.readers = [_FastReader(sim, self.engine, r) for r in sim.grid.all_ranks()]
        machine = sim.machine
        #: stmt_id -> precomputed compute-charge delta (compute_time is
        #: deterministic in flops, so this is bit-identical to
        #: charge_compute)
        self._dt = {
            sid: machine.compute_time(flops, 1)
            for sid, flops in lowered.flops.items()
        }
        self._assign_recs: dict[int, Any] = {}
        self._cond_recs: dict[int, Any] = {}
        #: tier 3, created on the first loop takeover attempt
        self.slab: Any = None

    # -- assignments -------------------------------------------------------

    def _assign_rec(self, stmt):
        sid = stmt.stmt_id
        fn = self.lowered.assigns.get(sid)
        if fn is None:
            return False
        name, lows = self.lowered.lhs_info[sid]
        closure = self.etables._closures.get(sid)
        if closure is None:
            closure = self.etables._build(stmt)
            self.etables._closures[sid] = closure
        return (
            fn,
            name,
            lows,
            self._dt[sid],
            sid in self.sim._reduction_updates,
            closure,
        )

    def exec_assign(self, stmt, env) -> None:
        sid = stmt.stmt_id
        self.sim.interp_instances += 1
        rec = self._assign_recs.get(sid)
        if rec is None:
            rec = self._assign_rec(stmt)
            self._assign_recs[sid] = rec
        if rec is False:
            return self.sim.exec_assign(stmt, env)
        fn, name, lows, dt, is_private_accumulation, ranks_of = rec
        ranks = ranks_of(env)
        if not ranks:
            raise SimulationError(f"S{sid}: empty executor set")
        sim = self.sim
        readers = self.readers
        memories = sim.memories
        time = sim.clocks.time
        compute_time = sim.clocks.compute_time
        if lows is not None:  # array lhs
            for rank in ranks:
                reader = readers[rank]
                reader.stmt = stmt
                index, value = fn(reader, env)
                arr, valid, _lo = reader.tables[name]
                off = tuple(i - lo for i, lo in zip(index, lows))
                arr[off] = value
                valid[off] = True
                time[rank] += dt
                compute_time[rank] += dt
            if not is_private_accumulation and len(ranks) < len(memories):
                # the element's column of the validity buffer: every
                # executor just stored it, nobody else holds it now
                column = sim.store.valid[name][(slice(None), *off)]
                column.fill(False)
                for rank in ranks:
                    column[rank] = True
        else:  # scalar lhs
            for rank in ranks:
                reader = readers[rank]
                reader.stmt = stmt
                _none, value = fn(reader, env)
                memory = memories[rank]
                memory.scalars[name] = value
                memory.scalar_valid[name] = True
                time[rank] += dt
                compute_time[rank] += dt
            if not is_private_accumulation and len(ranks) < len(memories):
                executing = set(ranks)
                for rank, memory in enumerate(memories):
                    if rank not in executing:
                        memory.scalar_valid[name] = False

    # -- conditions and bounds --------------------------------------------

    def exec_condition(self, stmt, env) -> bool:
        sid = stmt.stmt_id
        self.sim.interp_instances += 1
        rec = self._cond_recs.get(sid)
        if rec is None:
            fn = self.lowered.conds.get(sid)
            if fn is None:
                rec = False
            else:
                decision = self.sim.compiled.cf_decisions.get(sid)
                if decision is not None and decision.privatized:
                    dep = tuple(
                        self.sim.proc.stmt_of_ref(ref)
                        for ref in decision.dependent_refs
                    )
                else:
                    dep = None
                rec = (fn, self._dt[sid], dep)
            self._cond_recs[sid] = rec
        if rec is False:
            return self.sim.exec_condition(stmt, env)
        fn, dt, dep = rec
        sim = self.sim
        if dep is None:
            ranks = self.etables.all_ranks
        else:
            acc: set[int] = set()
            for dep_stmt in dep:
                acc.update(self.etables.ranks(dep_stmt, env))
            ranks = sorted(acc)
        if not ranks:
            # nobody depends on the outcome; evaluate for control flow
            # only (free)
            return fn(sim.authoritative, env)
        readers = self.readers
        time = sim.clocks.time
        compute_time = sim.clocks.compute_time
        results = set()
        for rank in ranks:
            reader = readers[rank]
            reader.stmt = stmt
            results.add(fn(reader, env))
            time[rank] += dt
            compute_time[rank] += dt
        if len(results) != 1:
            raise SimulationError(
                f"S{sid}: predicate disagrees across processors"
            )
        return results.pop()

    def eval_bound(self, expr, env) -> int:
        fn = self.lowered.bounds.built[id(expr)]
        if fn is None:
            return int(eval_expr(expr, self.sim.authoritative, env))
        return fn(self.sim.authoritative, env)


class FastHooks(ExecutionHooks):
    """Walker hooks driving the fast path; loop bookkeeping (active
    vars, reduction snapshots/combines) stays with the simulator."""

    def __init__(self, fast: FastPath):
        self.fast = fast
        self.sim = fast.sim

    def assign(self, stmt, env) -> None:
        self.fast.exec_assign(stmt, env)

    def eval_condition(self, stmt, env) -> bool:
        return self.fast.exec_condition(stmt, env)

    def eval_bound(self, expr, env) -> int:
        return self.fast.eval_bound(expr, env)

    def loop_enter(self, stmt, env) -> None:
        self.sim.on_loop_enter(stmt, env)

    def loop_exit(self, stmt, env) -> None:
        self.sim.on_loop_exit(stmt, env)

    def run_loop(self, stmt, low, high, step, env) -> bool:
        sim = self.sim
        if sim.tier == "lowered":
            return False
        slab = self.fast.slab
        if slab is None:
            from .slabexec import SlabExecutor

            slab = self.fast.slab = SlabExecutor(self.fast)
        return slab.run_loop(stmt, low, high, step, env)
