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
* **Executor sets** (:class:`ExecutorTables`, the simulator's
  ``etables``) lower each statement's owner-computes position to
  closures parameterized only by the enclosing loop indices: per grid
  dimension a lookup in the format's tabulated owners, turned into
  ranks by the store's one rule
  (:mod:`repro.machine.memory`: ``tabulate_owners``, ``GridRanks``).

:class:`FastPath` is the walker's hooks for the lowered and slab
tiers: a read of a copy the rank does not hold goes through the
simulator's one ``fetch_array`` / ``fetch_scalar``, whose source is the
store's (:meth:`~repro.machine.memory.Store.source`) and whose charge
is ``_charge_fetch`` — one startup per placement instance plus
per-element bandwidth.

Lowering is total: every assignment, condition and loop bound gets a
closure.  A constant the fold cannot write as a Python literal (a
non-finite float) is a named global of the closure; a fold that fails
emits the unfolded operation, which raises the interpreter's error at
run time.  A compiled program keeps its lowered form as derived state
(:attr:`~repro.core.driver.CompiledProgram.lowering`): any
``finalize()`` after an IR transform bumps ``proc.ir_epoch`` and the
next read lowers again.  The tree-walking evaluator stays the one
value oracle beside it: ``run_sequential(..., fast_path=False)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ..codegen.evalexpr import (
    _apply_binop,
    _apply_intrinsic,
    coerce_store,
    fortran_int_div,
)
from ..codegen.walker import ExecutionHooks
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
from .memory import tabulate_owners

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


#: what a best-effort constant fold may swallow: values the interpreter
#: itself would reject at run time (``InterpreterError``: constant
#: division by zero, unknown intrinsic) and numeric-domain errors.  The
#: unfolded operation is emitted instead and raises at run time.
#: Genuine programming errors (NameError, TypeError, ...) propagate.
_FOLD_ERRORS = (
    InterpreterError,
    ArithmeticError,
    ValueError,
    OverflowError,
)


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
    so values agree bit-for-bit; every IR expression kind lowers."""

    def __init__(self, glb: dict):
        self.glb = glb
        self._temp = 0
        self._consts = 0

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
            # repr() would not round-trip as a literal: a named global
            code = f"_k{self._consts}"
            self._consts += 1
            self.glb[code] = value
        else:
            code = repr(value)
        return _Emitted(
            code,
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
        raise TypeError(f"cannot lower {expr!r}")

    def _scalar_read(self, expr: ScalarRef) -> _Emitted:
        symbol = expr.symbol
        if symbol.value is not None:
            return self._const(symbol.value)
        r = self._ref_name(expr)
        is_int = symbol.type is ScalarType.INT
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
                return self._const(-x.value)
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
            try:
                return self._const(coerce_store(emitted.value, symbol_type)).code
            except _FOLD_ERRORS:  # e.g. INT(inf): the store raises instead
                pass
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
    """key -> ``table[key]``, asked once per key."""

    def __init__(self, table):
        self.table = table

    def __missing__(self, key):
        fn = self[key] = self.table[key]
        return fn


class _Closures(dict):
    """key -> ``fn(R, env)``, held as its emitted :class:`_Source` until
    the first lookup of the key — ``get`` and ``[]`` alike — compiles
    it: a statement inside a nest that every engine takes whole never
    pays ``compile()``.  The per-instance lookups of a run go through
    ``built[key]``, the C dict's on every hit."""

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
    """Per-procedure lowering result: one closure per assignment,
    condition and loop bound of the procedure."""

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
            lowered.flops[sid] = max(stmt.flops, 1)
            rhs = comp.emit(stmt.rhs)
            val = comp.store_code(rhs, stmt.lhs.symbol.type)
            if isinstance(stmt.lhs, ArrayElemRef):
                # tuple evaluation order = subscripts first, then rhs —
                # matching the tree walker's assignment
                body = f"({comp.index_code(stmt.lhs)}, {val})"
                lows = tuple(lo for lo, _ in stmt.lhs.symbol.dims)
            else:
                body = f"(None, {val})"
                lows = None
            lowered.assigns[sid] = _emit_fn(
                f"_a{sid}", body, glb, lowered, f"{proc.name}:S{sid}"
            )
            lowered.lhs_info[sid] = (stmt.lhs.symbol.name, lows)
        elif isinstance(stmt, IfStmt):
            lowered.flops[sid] = max(stmt.flops, 1)
            cond = comp.emit(stmt.cond)
            lowered.conds[sid] = _emit_fn(
                f"_c{sid}",
                f"bool({cond.code})",
                glb,
                lowered,
                f"{proc.name}:S{sid}",
            )
        elif isinstance(stmt, LoopStmt):
            for expr in (stmt.low, stmt.high, stmt.step):
                if expr is None or id(expr) in lowered.bounds:
                    continue
                e = comp.emit(expr)
                lowered.bounds[id(expr)] = _emit_fn(
                    f"_b{len(lowered.bounds)}",
                    e.code if e.is_int else f"int({e.code})",
                    glb,
                    lowered,
                    f"{proc.name}:S{sid}:bound{len(lowered.bounds)}",
                )
    return lowered


# ---------------------------------------------------------------------------
# Executor tables
# ---------------------------------------------------------------------------


class ExecutorTables:
    """Every statement's executor ranks as a closure ``env -> ranks``,
    ascending, built at the first request and parameterized only by
    the enclosing loop indices: per grid dimension an owning coordinate,
    looked up in the format's tabulated owners, or every coordinate,
    turned into ranks by the store's one rule
    (:mod:`repro.machine.memory`).  A privatized ``IF``'s entry is the
    union of its dependent statements'."""

    def __init__(self, sim):
        self.sim = sim
        self.grid = sim.store.grid_ranks
        self._closures: dict[int, Callable] = {}

    def ranks_of(self, stmt) -> Callable:
        """``stmt``'s executor set as a closure ``env -> ranks``."""
        fn = self._closures.get(stmt.stmt_id)
        if fn is None:
            fn = self._closures[stmt.stmt_id] = self._build(stmt)
        return fn

    def _build(self, stmt) -> Callable:
        sim = self.sim
        sid = stmt.stmt_id
        every = self.grid.every
        if isinstance(stmt, IfStmt):
            decision = sim.compiled.cf_decisions.get(sid)
            if decision is None or not decision.privatized:
                return lambda env: every
            deps = [
                self.ranks_of(sim.proc.stmt_of_ref(ref))
                for ref in decision.dependent_refs
            ]

            def union(env):  # dependents sharing one list add nothing
                ranks = []
                for fn in deps:
                    more = fn(env)
                    if more is not ranks:
                        ranks = sorted({*ranks, *more}) if ranks else more
                return ranks

            return union
        info = sim.compiled.executors[sid]
        if sim.reductions.runs_everywhere(sid, info):
            return lambda env: every
        return self.closure(info.position)

    def closure(self, position, spanning=()) -> Callable:
        """The ranks at ``position`` as a closure ``env -> ranks``: a
        grid dimension whose position is a form on a format is located
        by it, any other — and those in ``spanning`` — is every
        coordinate.  One located dimension indexes a list of shared
        rank lists by position."""
        dims = [
            (dim.form, dim.fmt)
            if dim.kind == "pos" and dim.form is not None
            and dim.fmt is not None and g not in spanning
            else None
            for g, dim in enumerate(position)
        ]
        grid = self.grid
        every = grid.ranks([None] * len(dims))
        located = [(g, *dim) for g, dim in enumerate(dims) if dim is not None]
        if not located:
            return lambda env: every
        if len(located) == 1:
            (g, form, fmt), = located
            at = [
                grid.ranks([c if h == g else None for h in range(len(dims))])
                for c in range(grid.shape[g])
            ]
            table = [at[c] for c in tabulate_owners(fmt).tolist()]
            return self._lookup(form, fmt, table, every)
        fns = [
            (lambda env: None) if dim is None
            else self._lookup(*dim, tabulate_owners(dim[1]).tolist(), None)
            for dim in dims
        ]
        ranks = grid.ranks
        return lambda env: ranks([fn(env) for fn in fns])

    def _lookup(self, form, fmt, table: list, spans) -> Callable:
        """``table`` at the position ``form`` takes, or ``spans`` when
        some variable has none — an inactive loop's index, a scalar no
        rank holds: the position then spans the dimension.  A variable's
        value is looked up live: env, then ``symbol.value``, then the
        first valid copy.  A position outside the template raises
        ``fmt.owner``'s canonical ``MappingError``."""
        extent = fmt.extent
        const = form.const
        terms = tuple(
            (sym.name, coeff, sym.value, bool(sym.is_loop_var))
            for sym, coeff in form.coeffs
        )
        active = self.sim._active_loop_vars
        store = self.sim.store

        def lookup(env):
            pos = const
            for name, coeff, value, is_loop_var in terms:
                if is_loop_var and name not in active:
                    return spans
                v = env.get(name, _MISS)
                if v is _MISS:
                    if value is not None:
                        v = value
                    else:
                        rank = store.holder(name)
                        if rank is None:
                            return spans
                        v = store.scalars[name][rank]
                pos += coeff * int(v)
            if 0 <= pos < extent:
                return table[pos]
            return fmt.owner(pos)  # raises the canonical MappingError

        return lookup


# ---------------------------------------------------------------------------
# Fast readers and the fast path itself
# ---------------------------------------------------------------------------


class _FastReader:
    """Per-rank reader with direct storage handles; a read of a copy
    the rank does not hold fetches through the simulator's one
    ``fetch_array`` / ``fetch_scalar``."""

    __slots__ = ("sim", "rank", "stmt", "scalars", "scalar_valid", "tables")

    def __init__(self, sim, rank: int):
        self.sim = sim
        self.rank = rank
        self.stmt = None
        store = sim.store
        self.scalars = store.scalars
        self.scalar_valid = store.scalar_valid
        #: name -> (data, valid, lows): the rank's rows of the buffers
        self.tables = {
            name: (data[rank], store.valid[name][rank], store.lows[name])
            for name, data in store.data.items()
        }

    def read_scalar(self, ref, env):
        name = ref.symbol.name
        if name in env:
            return env[name]
        rank = self.rank
        if self.scalar_valid[name][rank]:
            return self.scalars[name][rank]
        return self.sim.fetch_scalar(rank, ref, self.stmt, env)

    def read_array(self, ref, index, env):
        arr, valid, lows = self.tables[ref.symbol.name]
        off = tuple(i - lo for i, lo in zip(index, lows))
        if valid[off]:
            return arr[off].item()
        return self.sim.fetch_array(self.rank, ref, index, self.stmt, env)


class FastPath(ExecutionHooks):
    """The walker's hooks for tiers 2 and 3 of one simulator instance:
    every statement instance a slab takeover does not cover runs
    through its lowered closure on its executor table's ranks; loop
    bookkeeping (active variables, reduction snapshots and combines)
    stays with the simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.lowered = lowered = sim.compiled.lowering
        self.readers = [_FastReader(sim, r) for r in sim.grid.all_ranks()]
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

    def assign(self, stmt, env) -> None:
        sid = stmt.stmt_id
        self.sim.interp_instances += 1
        rec = self._assign_recs.get(sid)
        if rec is None:
            name, lows = self.lowered.lhs_info[sid]
            rec = self._assign_recs[sid] = (
                self.lowered.assigns[sid], name, lows, self._dt[sid],
                sid in self.sim.reductions.updates,
                self.sim.etables.ranks_of(stmt),
            )
        fn, name, lows, dt, is_private_accumulation, ranks_of = rec
        ranks = ranks_of(env)
        if not ranks:
            raise SimulationError(f"S{sid}: empty executor set")
        sim = self.sim
        readers = self.readers
        store = sim.store
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
            if not is_private_accumulation and len(ranks) < len(readers):
                # the element's column of the validity buffer: every
                # executor just stored it, nobody else holds it now
                column = store.valid[name][(slice(None), *off)]
                column.fill(False)
                for rank in ranks:
                    column[rank] = True
        else:  # scalar lhs
            values, valid = store.scalars[name], store.scalar_valid[name]
            for rank in ranks:
                reader = readers[rank]
                reader.stmt = stmt
                _none, values[rank] = fn(reader, env)
                valid[rank] = True
                time[rank] += dt
                compute_time[rank] += dt
            if not is_private_accumulation and len(ranks) < len(readers):
                store.scalar_keep(name, ranks)

    # -- conditions and bounds --------------------------------------------

    def eval_condition(self, stmt, env) -> bool:
        sid = stmt.stmt_id
        self.sim.interp_instances += 1
        rec = self._cond_recs.get(sid)
        if rec is None:
            rec = self._cond_recs[sid] = (
                self.lowered.conds[sid], self._dt[sid],
                self.sim.etables.ranks_of(stmt),
            )
        fn, dt, ranks_of = rec
        sim = self.sim
        ranks = ranks_of(env)
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
        return fn(self.sim.authoritative, env)

    # -- loops -------------------------------------------------------------

    def loop_enter(self, stmt, env) -> None:
        self.sim.on_loop_enter(stmt, env)

    def loop_exit(self, stmt, env) -> None:
        self.sim.on_loop_exit(stmt, env)

    def run_loop(self, stmt, low, high, step, env) -> bool:
        if self.sim.tier == "lowered":
            return False
        if self.slab is None:
            from .slabexec import SlabExecutor

            self.slab = SlabExecutor(self)
        return self.slab.run_loop(stmt, low, high, step, env)
