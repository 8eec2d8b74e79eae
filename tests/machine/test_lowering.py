"""Unit tests for the statement-lowering layer (`repro.machine.lowering`)."""

import math
import pathlib
import pickle

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.codegen.evalexpr import eval_expr, fortran_int_div
from repro.codegen.seq import GlobalStore
from repro.core import CompilerOptions, compile_source
from repro.errors import InterpreterError
from repro.ir import parse_and_build
from repro.ir.stmt import AssignStmt
from repro.machine import LoweredIR, lower_procedure, simulate
from repro.machine.lowering import CLOSURE_COUNTS, ExecutorTables, FastPath
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.machine.simulator import SPMDSimulator

SOURCE = """
PROGRAM UNIT
  PARAMETER (n = 10)
  REAL A(n), B(n), C(n)
  REAL s
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
  s = 0.0
  DO i = 2, n - 1
    A(i) = SQRT(ABS(B(i - 1))) + C(i + 1) * 2.0
    s = s + A(i)
  END DO
  DO i = 1, n
    C(i) = s
  END DO
END PROGRAM
"""


#: the three kernels and the fuzz corpus
EVERY_PROGRAM = {
    "tomcatv": tomcatv_source(n=12, niter=1),
    "dgefa": dgefa_source(n=8),
    "appsp": appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
    **{
        path.stem: path.read_text()
        for path in sorted(
            (pathlib.Path(__file__).resolve().parents[1] / "corpus").glob("*.hpf")
        )
    },
}


def _inputs(n=10, seed=1):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(1, 2, n) for name in "ABC"}


class TestFortranIntDiv:
    @pytest.mark.parametrize(
        "left,right",
        [(7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (-6, 3), (0, 5), (1, 7)],
    )
    def test_truncates_toward_zero(self, left, right):
        assert fortran_int_div(left, right) == math.trunc(left / right)

    def test_exact_beyond_float_precision(self):
        # int(left / right) loses bits above 2**53; // arithmetic must not.
        left = 2**60 + 1
        assert fortran_int_div(left, 1) == left
        assert fortran_int_div(-left, 1) == -left
        assert fortran_int_div(left, 3) == left // 3
        assert fortran_int_div(-left, 3) == -(left // 3)


class TestLoweringCache:
    """The one memo is ``CompiledProgram.lowering``; ``lower_procedure``
    itself lowers and returns."""

    def test_same_epoch_hits_cache(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        assert compiled.lowering is compiled.lowering
        before = CLOSURE_COUNTS["lowering.closures_emitted"]
        assert lower_procedure(compiled.proc) is not compiled.lowering
        assert CLOSURE_COUNTS["lowering.closures_emitted"] == (
            before + len(compiled.lowering.sources)
        )

    def test_finalize_invalidates(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        before = compiled.lowering
        compiled.proc.finalize()
        after = compiled.lowering
        assert after is not before
        assert after.ir_epoch == compiled.proc.ir_epoch
        assert compiled.lowering is after

    def test_pickle_round_trip_relowers(self):
        # LoweredIR holds exec'd closures, so it never travels: a
        # CompiledProgram crosses the compile_many pool and the disk
        # cache without it and re-lowers on first touch (consumers that
        # never execute a statement pay no builtins.compile).
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        lowered = compiled.lowering
        clone = pickle.loads(pickle.dumps(compiled))
        assert "lowering" not in clone._derived  # lazy until touched
        assert isinstance(clone.lowering, LoweredIR)
        assert clone.lowering is not lowered
        assert set(clone.lowering.assigns) == set(lowered.assigns)
        assert set(clone.lowering.conds) == set(lowered.conds)
        assert clone.lowering.flops == lowered.flops


def _built(table) -> int:
    """Closures of a ``LoweredIR`` table compiled so far (``values()``
    does not look a key up, so it shows the emitted source as it is)."""
    return sum(callable(entry) for entry in table.values())


class TestClosuresCompileOnFirstLookup:
    def test_get_and_subscript_both_build(self):
        lowered = lower_procedure(parse_and_build(SOURCE))
        tables = (lowered.assigns, lowered.conds, lowered.bounds)
        emitted = sum(len(t) for t in tables)
        assert emitted == len(lowered.sources) == 4 + 4
        assert [_built(t) for t in tables] == [0, 0, 0]
        before = dict(CLOSURE_COUNTS)
        first, second = list(lowered.assigns)[:2]
        fn = lowered.assigns.get(first)
        assert callable(fn) and lowered.assigns.get(first) is fn
        assert callable(lowered.assigns[second])
        assert lowered.assigns.get(-1) is None
        with pytest.raises(KeyError):
            lowered.assigns[-1]
        assert _built(lowered.assigns) == 2
        assert CLOSURE_COUNTS["lowering.closures_built"] == (
            before["lowering.closures_built"] + 2
        )
        assert CLOSURE_COUNTS["lowering.closures_emitted"] == (
            before["lowering.closures_emitted"]
        )

    def test_a_run_compiles_no_statement_inside_a_taken_nest(self):
        """tomcatv n=129 on 16 ranks: both engines take every nest
        whole, so of the 2 x 55 emitted closures only loop bounds and
        the ``rxm``/``rym`` initializations are ever compiled."""
        from repro import Session
        from repro.codegen import SequentialInterpreter
        from repro.codegen.seq import seeded_inputs

        result = Session(num_procs=16, use_calibration=False).run(
            tomcatv_source(n=129, niter=1, procs=16)
        )
        assert result.ok
        reference = SequentialInterpreter(result.sequential.proc)
        for name, values in seeded_inputs(reference.proc, 0).items():
            reference.store.set_array(name, values)
        reference.run()
        both = [result.compiled.lowering, reference.hooks.lowered]
        emitted = sum(
            len(t) for l in both for t in (l.assigns, l.conds, l.bounds)
        )
        built = sum(
            _built(t) for l in both for t in (l.assigns, l.conds, l.bounds)
        )
        assert emitted == 110
        assert built <= 50
        assert sum(_built(l.assigns) for l in both) <= 4

    @pytest.mark.parametrize("name", sorted(EVERY_PROGRAM))
    def test_every_emitted_closure_builds(self, name):
        """A generator bug must not hide until a closure's first use."""
        lowered = lower_procedure(parse_and_build(EVERY_PROGRAM[name]))
        for table in (lowered.assigns, lowered.conds, lowered.bounds):
            for key in table:
                assert callable(table[key])
            assert _built(table) == len(table)
        assert lowered.assigns


class TestExpressionClosures:
    def test_closures_match_eval_expr(self):
        proc = parse_and_build(SOURCE)
        lowered = lower_procedure(proc)
        store = GlobalStore(proc)
        for name, values in _inputs().items():
            store.set_array(name, values)
        store.scalars["S"] = 0.25
        env = {"I": 4}
        for stmt in proc.all_stmts():
            if not isinstance(stmt, AssignStmt):
                continue
            fn = lowered.assigns[stmt.stmt_id]
            index, value = fn(store, env)
            assert value == eval_expr(stmt.rhs, store, env), stmt

    def test_subscript_error_matches_interpreter(self):
        src = SOURCE.replace("DO i = 2, n - 1", "DO i = 2, n + 1")
        fast_err = slow_err = None
        try:
            run_sequential(parse_and_build(src), _inputs(), fast_path=True)
        except InterpreterError as e:
            fast_err = str(e)
        try:
            run_sequential(parse_and_build(src), _inputs(), fast_path=False)
        except InterpreterError as e:
            slow_err = str(e)
        assert fast_err is not None
        assert fast_err == slow_err

    def test_integer_division_by_zero_matches_interpreter(self):
        src = (
            "PROGRAM Z\n  PARAMETER (n = 4)\n  REAL A(n)\n  INTEGER k\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 1, n\n    k = i / (i - 1)\n    A(i) = REAL(k)\n"
            "  END DO\nEND PROGRAM\n"
        )
        for fast in (True, False):
            with pytest.raises(InterpreterError, match="integer division by zero"):
                run_sequential(parse_and_build(src), fast_path=fast)


class TestExecutorTables:
    def test_ranks_match_interpreted_executor_sets(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        sim = SPMDSimulator(compiled)
        for name, values in _inputs().items():
            sim.set_array(name, values)
        tables = ExecutorTables(sim)
        for stmt in compiled.proc.all_stmts():
            if stmt.stmt_id not in compiled.executors:
                continue
            loops = [lp.var.name for lp in stmt.loops_enclosing()]
            for i in range(1, 11):
                env = dict.fromkeys(loops, i)
                assert tables.ranks(stmt, env) == sim.executor_ranks(stmt, env), (
                    stmt,
                    env,
                )

    def test_fast_path_prefers_compiled_lowering(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        sim = SPMDSimulator(compiled)
        assert FastPath(sim).lowered is compiled.lowering

    def test_fast_path_relowers_on_stale_epoch(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        stale = compiled.lowering
        compiled.proc.finalize()
        sim = SPMDSimulator(compiled)
        fp = FastPath(sim)
        assert fp.lowered is not stale
        assert fp.lowered.ir_epoch == compiled.proc.ir_epoch


class TestFetchCharging:
    def test_fast_path_fetches_preserve_traffic_totals(self):
        # The fetch engine changes only how a fetch finds its source;
        # every per-element charge is identical.
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        fast = simulate(compiled, _inputs())
        slow = simulate(compiled, _inputs(), tier="interpreted")
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast.clocks.snapshot() == slow.clocks.snapshot()
