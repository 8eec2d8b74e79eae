"""Error-path tests: malformed programs must fail with the right
exception type and an actionable message, never a stack-trace surprise."""

import pytest

from repro.core import CompilerOptions, compile_source
from repro.errors import (
    DirectiveError,
    LexError,
    MappingError,
    ParseError,
    ReproError,
    SemanticError,
)
from repro.ir import parse_and_build


class TestFrontEndErrors:
    def test_lex_error_has_location(self):
        with pytest.raises(LexError) as err:
            parse_and_build("PROGRAM t\n  A = $\nEND\n")
        assert "line 2" in str(err.value)

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as err:
            parse_and_build("PROGRAM t\n  DO i = 1\nEND\n")
        assert "line" in str(err.value)

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_and_build("PROGRAM t\n  x = 1.0\n")

    def test_bad_directive(self):
        with pytest.raises(DirectiveError):
            parse_and_build("PROGRAM t\n  REAL A(4)\n!HPF$ FROBNICATE A\nEND\n")

    def test_goto_nowhere(self):
        with pytest.raises(SemanticError) as err:
            parse_and_build("PROGRAM t\n  GO TO 77\nEND\n")
        assert "77" in str(err.value)

    def test_undeclared_array(self):
        with pytest.raises(SemanticError):
            parse_and_build("PROGRAM t\n  x = NOSUCHARRAY(1, 2)\nEND\n")

    def test_symbolic_array_bound(self):
        with pytest.raises(SemanticError):
            parse_and_build("PROGRAM t\n  REAL A(m)\nEND\n")


def _nested(depth: int) -> str:
    """``B(i) = ((...(A(i) + 1.0) * 0.5 ...))``, ``depth`` levels deep."""
    expr = "A(i)"
    for level in range(depth):
        expr = f"({expr} + 1.0)" if level % 2 == 0 else f"({expr} * 0.5)"
    return (
        "PROGRAM deep\n  PARAMETER (n = 8)\n  REAL A(n), B(n)\n"
        "!HPF$ ALIGN B(i) WITH A(i)\n!HPF$ DISTRIBUTE (BLOCK) :: A\n"
        f"  DO i = 1, n\n    B(i) = {expr}\n  END DO\nEND PROGRAM\n"
    )


class TestExpressionNesting:
    """The parser recurses ten frames per nesting level; running out of
    stack is a typed error with a location, not a ``RecursionError``."""

    def test_ninety_levels_run(self):
        from repro import Session

        result = Session(num_procs=2, use_calibration=False).run(_nested(90))
        assert result.ok and result.matches == {"A": True, "B": True}

    @pytest.mark.parametrize("depth", [300, 3000])
    def test_too_deep_is_a_parse_error(self, depth):
        from repro import Session

        with pytest.raises(ParseError) as err:
            Session(num_procs=2, use_calibration=False).run(_nested(depth))
        assert isinstance(err.value, ReproError)
        assert "expression nested too deeply at line 7" in str(err.value)
        assert not isinstance(err.value.__cause__, RecursionError)


class TestMappingErrors:
    def test_grid_rank_mismatch(self):
        src = (
            "PROGRAM t\n  REAL A(8)\n"
            "!HPF$ PROCESSORS P(2, 2)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\nEND\n"
        )
        with pytest.raises(MappingError):
            compile_source(src, CompilerOptions())

    def test_cyclic_align_chain(self):
        src = (
            "PROGRAM t\n  REAL A(8), B(8)\n"
            "!HPF$ ALIGN A(i) WITH B(i)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\nEND\n"
        )
        with pytest.raises(MappingError) as err:
            compile_source(src, CompilerOptions(num_procs=2))
        assert "ALIGN chain" in str(err.value)

    def test_align_to_scalar_rejected(self):
        src = (
            "PROGRAM t\n  REAL A(8)\n  REAL x\n"
            "!HPF$ ALIGN A(i) WITH x(i)\nEND\n"
        )
        with pytest.raises((DirectiveError, SemanticError)):
            compile_source(src, CompilerOptions())


class TestOptionsValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError) as err:
            CompilerOptions(strategy="fastest")
        assert "fastest" in str(err.value)

    def test_boolean_processor_count(self):
        """``True == 1`` would share the in-manager memo with
        ``num_procs=1`` under a cache key and sweep group of its own."""
        with pytest.raises(ValueError, match="num_procs must be a positive"):
            CompilerOptions(num_procs=True)
        assert CompilerOptions(num_procs=1).num_procs == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_nest_cost_constant(self, value):
        """NaN options never compare equal to themselves, and ``nan``
        would enter every cache key."""
        with pytest.raises(ValueError, match="must be positive"):
            CompilerOptions(nest_cost_constants={"C_PREP": value})

    def test_all_errors_share_base(self):
        for exc in (LexError, ParseError, DirectiveError, SemanticError, MappingError):
            assert issubclass(exc, ReproError)


class TestRuntimeErrors:
    def test_out_of_bounds_subscript(self):
        from repro.codegen import run_sequential
        from repro.errors import InterpreterError

        proc = parse_and_build("PROGRAM t\n  REAL A(4)\n  A(5) = 1.0\nEND\n")
        with pytest.raises(InterpreterError) as err:
            run_sequential(proc, {})
        assert "out of bounds" in str(err.value)

    def test_uninitialized_scalar(self):
        from repro.codegen import run_sequential
        from repro.errors import InterpreterError

        proc = parse_and_build("PROGRAM t\n  REAL A(4)\n  A(1) = qq\nEND\n")
        with pytest.raises(InterpreterError):
            run_sequential(proc, {})

    def test_simulator_shape_mismatch(self):
        import numpy as np

        from repro.errors import SimulationError
        from repro.machine import SPMDSimulator

        compiled = compile_source(
            "PROGRAM t\n  REAL A(4)\n!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  A(1) = 1.0\nEND\n",
            CompilerOptions(num_procs=2),
        )
        sim = SPMDSimulator(compiled)
        with pytest.raises(SimulationError):
            sim.set_array("A", np.zeros(7))

    @pytest.mark.parametrize("backend", ["simulate", "run_sequential"])
    def test_bad_input_arrays_are_typed_errors(self, backend):
        """An input naming no declared array, or of the wrong shape, is
        a ``ReproError`` that names the array — on both back ends —
        and anything array-like (a nested list) is accepted."""
        from repro.codegen import run_sequential
        from repro.errors import InterpreterError, SimulationError
        from repro.machine import simulate

        source = (
            "PROGRAM t\n  REAL A(2, 2), B(2, 2)\n"
            "!HPF$ ALIGN B(i, j) WITH A(i, j)\n"
            "!HPF$ DISTRIBUTE (BLOCK, *) :: A\n"
            "  DO i = 1, 2\n    A(i, 1) = B(i, 2)\n  END DO\nEND\n"
        )
        if backend == "simulate":
            compiled = compile_source(source, CompilerOptions(num_procs=2))
            error = SimulationError

            def run(inputs):
                return simulate(compiled, inputs).gather("A")
        else:
            error = InterpreterError

            def run(inputs):
                return run_sequential(parse_and_build(source), inputs).get_array("A")

        with pytest.raises(error) as err:
            run({"NOPE": [[1.0, 2.0], [3.0, 4.0]]})
        assert "'NOPE'" in str(err.value) and "['A', 'B']" in str(err.value)
        with pytest.raises(error) as err:
            run({"b": [1.0, 2.0]})
        assert "shape mismatch" in str(err.value)
        assert run({"b": [[1.0, 2.0], [3.0, 4.0]]}).tolist() == [
            [2.0, 0.0], [4.0, 0.0]
        ]

    @pytest.mark.parametrize("backend", ["simulate", "run_sequential"])
    def test_unknown_result_names_are_typed_errors(self, backend):
        """Asking a finished run for an array the program does not
        declare — a typo, or a scalar's name — is the back end's typed
        error naming the declared arrays, as ``set_array`` raises; never
        a bare ``KeyError``."""
        from repro.codegen import run_sequential
        from repro.errors import InterpreterError, SimulationError
        from repro.machine import simulate

        source = (
            "PROGRAM t\n  REAL A(4), B(4)\n  REAL pmax\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  pmax = 2.0\n  DO i = 1, 4\n    A(i) = pmax * B(i)\n  END DO\nEND\n"
        )
        if backend == "simulate":
            compiled = compile_source(source, CompilerOptions(num_procs=2))
            error, read = SimulationError, simulate(compiled, {}).gather
        else:
            error = InterpreterError
            read = run_sequential(parse_and_build(source), {}).get_array
        assert read("a").shape == (4,)
        for name in ("nope", "pmax"):
            with pytest.raises(error) as err:
                read(name)
            assert repr(name) in str(err.value)
            assert "the program declares ['A', 'B']" in str(err.value)

    @pytest.mark.parametrize("backend", ["simulate", "run_sequential"])
    def test_non_real_input_values_are_rejected(self, backend):
        """A complex input would silently lose its imaginary part and a
        string die inside numpy: both are typed errors naming the array
        and the dtype; booleans, integers and reals go in as before."""
        import warnings

        import numpy as np

        from repro.codegen import run_sequential
        from repro.errors import InterpreterError, SimulationError
        from repro.machine import simulate

        source = (
            "PROGRAM t\n  REAL A(2, 2)\n!HPF$ DISTRIBUTE (BLOCK, *) :: A\n"
            "  A(1, 1) = A(2, 2)\nEND\n"
        )
        if backend == "simulate":
            compiled = compile_source(source, CompilerOptions(num_procs=2))
            error = SimulationError

            def run(values):
                return simulate(compiled, {"a": values}).gather("A")
        else:
            error = InterpreterError

            def run(values):
                proc = parse_and_build(source)
                return run_sequential(proc, {"a": values}).get_array("A")

        hostile = (
            np.ones((2, 2), dtype=complex),
            np.full((2, 2), "1.5"),
            np.full((2, 2), None),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            for values in hostile:
                with pytest.raises(error) as err:
                    run(values)
                assert "cannot initialize A" in str(err.value)
                assert str(values.dtype) in str(err.value)
        for values in (
            np.eye(2, dtype=bool), np.eye(2, dtype=np.int32),
            np.eye(2, dtype=np.float32), [[1, 0], [0, 1]],
        ):
            assert run(values).tolist() == [[1.0, 0.0], [0.0, 1.0]]
