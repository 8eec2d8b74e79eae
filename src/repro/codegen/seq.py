"""Sequential reference — the semantic ground truth.

Executes a procedure on plain global storage (numpy arrays, scalar
dict); ``Session.run``, the fuzzer and the integration tests validate
the SPMD simulator's results against it.  Two engines, one result:

* ``fast_path=False`` is the tree-walking interpreter
  (:class:`SequentialHooks` over ``eval_expr``): slow, small, and
  independent of everything else — the oracle of last resort.
* ``fast_path=True`` (the default) hands every eligible loop to
  :mod:`repro.codegen.seqvec`, which executes it as numpy lane
  operations.  Every other statement — a loop that is not eligible, or
  whose takeover bails on a value, runs one iteration at a time — goes
  through its one-time-lowered closure (:mod:`repro.machine.lowering`;
  lowering is total, so this engine never calls the tree walker).

Both produce bit-identical arrays, scalars (with their Python types),
post-loop index values, ``WalkStats``, and — on a failing program — the
same error and the same partial store
(``tests/props/test_seq_vector_parity.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpreterError
from ..ir.expr import ArrayElemRef, ScalarRef
from ..ir.program import Procedure
from ..ir.stmt import AssignStmt, IfStmt
from ..ir.symbols import ScalarType, Symbol
from .evalexpr import ValueReader, coerce_store, eval_expr, eval_subscripts
from .walker import ExecutionHooks, Walker, WalkStats


def _dtype_of(symbol: Symbol):
    if symbol.type is ScalarType.INT:
        return np.int64
    if symbol.type is ScalarType.LOGICAL:
        return np.bool_
    return np.float64


class GlobalStore(ValueReader):
    """Global-view storage: one array per symbol, Fortran bounds."""

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.arrays: dict[str, np.ndarray] = {}
        self.scalars: dict[str, float | int | bool] = {}
        for symbol in proc.symbols.arrays():
            shape = tuple(symbol.extent(d) for d in range(symbol.rank))
            self.arrays[symbol.name] = np.zeros(shape, dtype=_dtype_of(symbol))

    # -- indexing ----------------------------------------------------------

    def _offset(self, symbol: Symbol, index: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(idx - symbol.dims[d][0] for d, idx in enumerate(index))

    # -- ValueReader -----------------------------------------------------------

    def read_scalar(self, ref: ScalarRef, env: dict[str, int]):
        name = ref.symbol.name
        if name in env:
            return env[name]
        if name not in self.scalars:
            raise InterpreterError(f"read of undefined scalar {name}")
        return self.scalars[name]

    def read_array(self, ref: ArrayElemRef, index: tuple[int, ...], env):
        return self.arrays[ref.symbol.name][self._offset(ref.symbol, index)].item()

    # -- writes -----------------------------------------------------------------

    def write_scalar(self, symbol: Symbol, value) -> None:
        self.scalars[symbol.name] = coerce_store(value, symbol.type)

    def write_array(self, symbol: Symbol, index: tuple[int, ...], value) -> None:
        self.arrays[symbol.name][self._offset(symbol, index)] = value

    # -- initialization helpers ------------------------------------------------------

    def set_array(self, name: str, values: np.ndarray) -> None:
        target = self.arrays.get(name.upper())
        if target is None:
            raise InterpreterError(
                f"no array {name!r} to initialize: the program declares "
                f"{sorted(self.arrays)}"
            )
        values = np.asarray(values)
        if values.dtype.kind not in "biuf":
            # (complex would lose its imaginary part, a string die in numpy)
            raise InterpreterError(
                f"cannot initialize {name.upper()} from {values.dtype} "
                f"values: an input is boolean, integer or real"
            )
        if target.shape != values.shape:
            raise InterpreterError(
                f"shape mismatch for {name}: {values.shape} vs {target.shape}"
            )
        target[...] = values

    def get_array(self, name: str) -> np.ndarray:
        values = self.arrays.get(name.upper())
        if values is None:
            raise InterpreterError(
                f"no array {name!r} to read: the program declares "
                f"{sorted(self.arrays)}"
            )
        return values.copy()

    def get_scalar(self, name: str):
        """The scalar's final value; None when it was never assigned."""
        symbol = self.proc.symbols.lookup(name)
        if symbol is None or not symbol.is_scalar:
            raise InterpreterError(
                f"no scalar {name!r} to read: the program declares "
                f"{sorted(s.name for s in self.proc.symbols.scalars())}"
            )
        return self.scalars.get(symbol.name)


class LoweredSequentialHooks(ExecutionHooks):
    """Sequential execution through the one-time-lowered statement
    closures (``repro.machine.lowering``), with the plain global store
    as the reader; whole loops are offered to ``vector`` (a
    :class:`~repro.codegen.seqvec.SeqVectorizer`) first."""

    def __init__(self, store: GlobalStore, lowered, stats: WalkStats,
                 metrics=None):
        # deferred import: only a run needs the vector kernels
        from .seqvec import SeqVectorizer

        self.store = store
        self.lowered = lowered
        self.vector = SeqVectorizer(self, stats, metrics)

    def assign(self, stmt: AssignStmt, env: dict[str, int]) -> None:
        fn = self.lowered.assigns.built[stmt.stmt_id]
        index, value = fn(self.store, env)
        name, lows = self.lowered.lhs_info[stmt.stmt_id]
        if index is None:
            self.store.scalars[name] = value
        else:
            off = tuple(i - lo for i, lo in zip(index, lows))
            self.store.arrays[name][off] = value

    def eval_condition(self, stmt: IfStmt, env: dict[str, int]) -> bool:
        return self.lowered.conds.built[stmt.stmt_id](self.store, env)

    def eval_bound(self, expr, env: dict[str, int]) -> int:
        return self.lowered.bounds.built[id(expr)](self.store, env)

    def run_loop(self, stmt, low, high, step, env) -> bool:
        return self.vector.run_loop(stmt, low, high, step, env)


class SequentialHooks(ExecutionHooks):
    def __init__(self, store: GlobalStore):
        self.store = store

    def assign(self, stmt: AssignStmt, env: dict[str, int]) -> None:
        value = eval_expr(stmt.rhs, self.store, env)
        if isinstance(stmt.lhs, ArrayElemRef):
            index = eval_subscripts(stmt.lhs, self.store, env)
            self.store.write_array(stmt.lhs.symbol, index, value)
        else:
            self.store.write_scalar(stmt.lhs.symbol, value)

    def eval_condition(self, stmt: IfStmt, env: dict[str, int]) -> bool:
        return bool(eval_expr(stmt.cond, self.store, env))

    def eval_bound(self, expr, env: dict[str, int]) -> int:
        return int(eval_expr(expr, self.store, env))


class SequentialInterpreter:
    """Run a procedure sequentially.

    Usage::

        interp = SequentialInterpreter(proc)
        interp.store.set_array("A", values)
        interp.run()
        result = interp.store.get_array("A")
    """

    def __init__(self, proc: Procedure, fast_path: bool = True, metrics=None):
        self.proc = proc
        self.store = GlobalStore(proc)
        self.fast_path = fast_path
        #: a :class:`repro.obs.Metrics` the takeovers count into
        self.metrics = metrics
        #: statement/iteration counts and the step limit of the run
        self.stats = WalkStats()
        #: loop variables and their post-loop values, once run
        self.env: dict[str, int] = {}
        #: the engine of the last run (``hooks.vector`` tells which
        #: loops were taken over, and why the others were not)
        self.hooks: ExecutionHooks | None = None

    def run(self):
        if self.fast_path:
            # deferred import: repro.machine imports this module
            from ..machine.lowering import lower_procedure

            hooks: ExecutionHooks = LoweredSequentialHooks(
                self.store, lower_procedure(self.proc), self.stats,
                self.metrics,
            )
        else:
            hooks = SequentialHooks(self.store)
        self.hooks = hooks
        walker = Walker(self.proc, hooks)
        walker.stats = self.stats
        self.env = walker.env
        return walker.run()


def seeded_inputs(proc: Procedure, seed: int) -> dict[str, np.ndarray]:
    """Deterministic random input arrays for ``proc``: one
    ``uniform(0.5, 1.5)`` draw per declared array, in symbol order, from
    ``default_rng(seed)``.  The one dataset ``Session.run``, the sweep
    engines and the fuzzer feed to the reference and to every tier."""
    rng = np.random.default_rng(seed)
    return {
        symbol.name: rng.uniform(
            0.5, 1.5, tuple(symbol.extent(d) for d in range(symbol.rank))
        )
        for symbol in proc.symbols.arrays()
    }


def run_sequential(
    proc: Procedure,
    inputs: dict[str, np.ndarray] | None = None,
    fast_path: bool = True,
    metrics=None,
):
    """Convenience: run and return the final store.  ``metrics`` counts
    the whole-loop takeovers (``seq.takeover[loop=S..]``) and the ones
    that bailed on a value (``seq.bail[reason]``)."""
    interp = SequentialInterpreter(proc, fast_path=fast_path, metrics=metrics)
    for name, values in (inputs or {}).items():
        interp.store.set_array(name, values)
    interp.run()
    return interp.store
