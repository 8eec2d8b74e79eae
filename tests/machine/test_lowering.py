"""Unit tests for the statement-lowering layer (`repro.machine.lowering`)."""

import itertools
import math
import pathlib
import pickle

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.codegen.evalexpr import eval_expr, fortran_int_div
from repro.codegen.seq import GlobalStore
from repro.core import CompilerOptions, compile_source
from repro.errors import InterpreterError, MappingError
from repro.ir import parse_and_build
from repro.ir.stmt import AssignStmt, IfStmt, LoopStmt
from repro.machine import LoweredIR, lower_procedure, simulate
from repro.machine.lowering import CLOSURE_COUNTS, FastPath
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.machine.simulator import SPMDSimulator

from ..props.test_lowering_parity import NON_FINITE

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


CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"

#: the three kernels, the fuzz corpus and non-finite constants
EVERY_PROGRAM = {
    "tomcatv": tomcatv_source(n=12, niter=1),
    "dgefa": dgefa_source(n=8),
    "appsp": appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
    "non_finite": NON_FINITE,
    **{
        path.stem: path.read_text()
        for path in sorted(CORPUS.glob("*.hpf"))
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

        result = Session(num_procs=16).run(
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

    @pytest.mark.parametrize("name", sorted(EVERY_PROGRAM))
    def test_every_statement_has_a_closure(self, name):
        """Lowering is total: no assignment, condition or loop bound is
        left to the tree walker."""
        proc = parse_and_build(EVERY_PROGRAM[name])
        lowered = lower_procedure(proc)
        for stmt in proc.all_stmts():
            if isinstance(stmt, AssignStmt):
                assert stmt.stmt_id in lowered.assigns, stmt
            elif isinstance(stmt, IfStmt):
                assert stmt.stmt_id in lowered.conds, stmt
            elif isinstance(stmt, LoopStmt):
                for bound in (stmt.low, stmt.high, stmt.step):
                    assert bound is None or id(bound) in lowered.bounds, stmt


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

    def test_unknown_expression_kind_is_a_type_error(self):
        from repro.machine.lowering import _ExprCompiler

        with pytest.raises(TypeError, match="cannot lower"):
            _ExprCompiler({}).emit(object())

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


#: executor positions over every kind of grid dimension: BLOCK (the
#: unit SOURCE), CYCLIC(2) columns with a collapsed row dimension, a 2-D
#: (BLOCK, BLOCK) grid, and privatized IFs: one whose dependents have
#: different owners (BLOCK and CYCLIC), dgefa's and a corpus program's
PLACEMENTS = {
    "block": (SOURCE, 4),
    "cyclic2": ("""
PROGRAM C2
  PARAMETER (n = 10)
  REAL A(n, n), X(n)
  REAL s
!HPF$ DISTRIBUTE (*, CYCLIC(2)) :: A
!HPF$ ALIGN X(j) WITH A(*, j)
  DO j = 1, n
    s = 0.0
    DO i = 1, n
      A(i, j) = A(i, j) + X(j)
      s = s + A(i, j)
    END DO
    X(j) = s
  END DO
END PROGRAM
""", 3),
    "block-block": ("""
PROGRAM G2
  PARAMETER (n = 8)
  REAL A(n, n), B(n, n)
!HPF$ PROCESSORS P(2, 2)
!HPF$ ALIGN (i, j) WITH A(i, j) :: B
!HPF$ DISTRIBUTE (BLOCK, BLOCK) ONTO P :: A
  DO j = 2, n
    DO i = 1, n
      A(i, j) = B(i, j - 1) * 2.0
    END DO
    B(1, j) = A(2, j)
  END DO
END PROGRAM
""", 4),
    "if-block-cyclic": ("""
PROGRAM PIF
  PARAMETER (n = 8)
  REAL A(n), B(n)
  REAL t
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ DISTRIBUTE (CYCLIC) :: B
  DO i = 1, n
    t = A(i) - B(i)
    IF (t .GT. 0.5) THEN
      A(i) = t
      B(i) = t
    END IF
  END DO
END PROGRAM
""", 4),
    "dgefa": (EVERY_PROGRAM["dgefa"], 4),
    "fuzz_0004": (EVERY_PROGRAM["fuzz_0004"], 4),
}


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of its
    ``MappingError``."""
    try:
        return fn(*args)
    except MappingError as error:
        return type(error), str(error)


def _envs(loops, n):
    """Loop-index values for ``loops``: the diagonal 1 .. n + 2 (its
    tail outside every template) and, for a nest, a spread of the rest."""
    yield from (dict.fromkeys(loops, i) for i in range(1, n + 3))
    if len(loops) > 1:
        spread = (1, 3, n)
        for values in itertools.product(spread, repeat=len(loops)):
            yield dict(zip(loops, values))


class TestExecutorTables:
    @pytest.mark.parametrize("program", sorted(PLACEMENTS))
    def test_ranks_are_the_owner_filter(self, program):
        """Every assignment's and condition's table entry against a
        filter over all ranks, with the enclosing loops inactive (a
        position naming their index spans) and active (it is a point):
        a rank executes when, in every grid dimension, its coordinate
        is the owner of the evaluated position form or the position
        spans the dimension, and a privatized ``IF``'s set is the union
        of its dependents'.  Equal lists, or the same ``MappingError``
        for a position outside the template."""
        source, procs = PLACEMENTS[program]
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        sim = SPMDSimulator(compiled, tier="lowered")
        grid = compiled.grid
        store = sim.store
        active = sim._active_loop_vars

        def position(form, env):
            """The form's value, or None where it spans: an inactive
            loop's index, a scalar no rank holds."""
            total = form.const
            for symbol, coeff in form.coeffs:
                name = symbol.name
                if symbol.is_loop_var and name not in active:
                    return None
                if name in env:
                    value = env[name]
                elif symbol.value is not None:
                    value = symbol.value
                elif store.holder(name) is None:
                    return None
                else:
                    value = store.scalars[name][store.holder(name)]
                total += coeff * int(value)
            return total

        def owner_filter(stmt, env):
            if isinstance(stmt, IfStmt):
                decision = compiled.cf_decisions.get(stmt.stmt_id)
                if decision is None or not decision.privatized:
                    return list(grid.all_ranks())
                return sorted({
                    rank
                    for ref in decision.dependent_refs
                    for rank in owner_filter(compiled.proc.stmt_of_ref(ref), env)
                })
            info = compiled.executors[stmt.stmt_id]
            if sim.reductions.runs_everywhere(stmt.stmt_id, info):
                return list(grid.all_ranks())
            owners = {}
            for g, dim in enumerate(info.position):
                if dim.kind == "pos" and dim.form is not None and dim.fmt is not None:
                    pos = position(dim.form, env)
                    if pos is not None:
                        owners[g] = dim.fmt.owner(pos)
            return [
                r for r in grid.all_ranks()
                if all(grid.coords_of(r)[g] == c for g, c in owners.items())
            ]

        proper = errors = privatized = 0
        for stmt in compiled.proc.all_stmts():
            if isinstance(stmt, IfStmt):
                decision = compiled.cf_decisions.get(stmt.stmt_id)
                privatized += decision is not None and decision.privatized
            elif not isinstance(stmt, AssignStmt):
                continue
            loops = [lp.var.name for lp in stmt.loops_enclosing()]
            for running in (False, True):
                active.clear()
                if running:
                    active.update(dict.fromkeys(loops, 1))
                for env in _envs(loops, 10):
                    got = _outcome(sim.etables.ranks_of(stmt), env)
                    assert got == _outcome(owner_filter, stmt, env), (
                        stmt, env, running
                    )
                    if isinstance(got, tuple):
                        errors += 1
                    elif running and len(got) < procs:
                        proper += 1
        assert proper, "no loop-dependent executor was compared"
        if program in ("if-block-cyclic", "dgefa", "fuzz_0004"):
            assert privatized
        if program == "block":
            assert errors, "no position outside the template"

    @pytest.mark.parametrize(
        "program", sorted(set(EVERY_PROGRAM) - {"non_finite"})
    )
    def test_reduction_groups_are_the_owner_filter(self, program):
        """A combine's group against a filter over all ranks: a rank
        takes part when its coordinate is the target's owner in every
        grid dimension the reduction is aligned in."""
        from repro.ir.expr import affine_form

        source = EVERY_PROGRAM[program]
        compiled = compile_source(source, CompilerOptions(num_procs=4))
        sim = SPMDSimulator(compiled)
        grid = compiled.grid
        compared = 0
        for reductions in sim.reductions.by_loop.values():
            for reduction, mapping in reductions:
                if reduction.is_array_reduction:
                    continue
                target = mapping.target
                roles = compiled.mappings[target.symbol.name].roles
                aligned = [
                    (g, role, target.subscripts[role.array_dim])
                    for g, role in enumerate(roles)
                    if role.kind == "dist"
                    and g not in mapping.replicated_grid_dims
                    and affine_form(target.subscripts[role.array_dim])
                ]
                # at its exit the reduction loop's index is inactive, but
                # the dimensions the reduction spans span whatever it is
                outer = [lp.var.name for lp in reduction.loop.loops_enclosing()]
                loops = [*outer, reduction.loop.var.name]

                def tier_one(env):
                    owners = {
                        g: role.fmt.owner(role.template_pos(
                            eval_expr(sub, sim.authoritative, env)
                        ))
                        for g, role, sub in aligned
                    }
                    return [
                        r for r in grid.all_ranks()
                        if all(grid.coords_of(r)[g] == c for g, c in owners.items())
                    ]

                for running in (outer, loops):
                    sim._active_loop_vars.clear()
                    sim._active_loop_vars.update(dict.fromkeys(running, 1))
                    for env in _envs(running, 8):
                        assert _outcome(
                            sim._participant_groups, reduction, mapping, env
                        ) == _outcome(tier_one, env), (program, env)
                        compared += 1
        if program in ("tomcatv", "dgefa", "fuzz_0020"):
            assert compared

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
    def test_slab_replay_preserves_traffic_totals(self):
        # The slab tier replays the fetches the lowered tier makes
        # through the simulator's one fetch_array, charge for charge.
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        slab = simulate(compiled, _inputs(), tier="slab")
        lowered = simulate(compiled, _inputs(), tier="lowered")
        assert slab.stats.as_dict() == lowered.stats.as_dict()
        assert slab.clocks.snapshot() == lowered.clocks.snapshot()
        assert lowered.stats.messages > 0
