"""AST → IR lowering tests."""

import pytest

from repro.errors import DirectiveError, SemanticError
from repro.ir import (
    ArrayElemRef,
    AssignStmt,
    Const,
    IfStmt,
    IntrinsicCall,
    LoopStmt,
    ScalarType,
    parse_and_build,
)


def build(body, decls="  REAL A(10), B(10)\n"):
    return parse_and_build(f"PROGRAM T\n{decls}{body}\nEND PROGRAM\n")


class TestDeclarations:
    def test_parameters_folded(self):
        proc = build("  A(1) = 0.0", decls="  PARAMETER (n = 10)\n  REAL A(n)\n")
        a = proc.symbols.require("A")
        assert a.dims == ((1, 10),)

    def test_parameter_expression(self):
        proc = build("  A(1) = 0.0", decls="  PARAMETER (n = 4, m = n*2+1)\n  REAL A(m)\n")
        assert proc.symbols.require("A").extent(0) == 9

    def test_parameter_used_in_expr_becomes_const(self):
        proc = build("  x = n + 1", decls="  PARAMETER (n = 5)\n  REAL x\n")
        stmt = next(proc.assignments())
        # n folded: rhs has no refs to N
        assert all(r.symbol.name != "N" for r in stmt.rhs.refs())

    def test_empty_array_bounds_rejected(self):
        with pytest.raises(SemanticError):
            build("  A(1) = 0.0", decls="  REAL A(5:2)\n")

    def test_implicit_scalar_declaration(self):
        proc = build("  zz = 1.0")
        assert proc.symbols.lookup("ZZ").type is ScalarType.REAL


class TestExpressions:
    def test_intrinsic_call_lowered(self):
        proc = build("  x = MAX(A(1), B(1))")
        stmt = next(proc.assignments())
        assert isinstance(stmt.rhs, IntrinsicCall)
        assert stmt.rhs.name == "MAX"

    def test_array_vs_intrinsic_disambiguation(self):
        # MAX declared as an array shadows the intrinsic.
        proc = build("  x = MAX(1)", decls="  REAL MAX(5)\n")
        stmt = next(proc.assignments())
        assert isinstance(stmt.rhs, ArrayElemRef)

    def test_unknown_call_rejected(self):
        with pytest.raises(SemanticError):
            build("  x = NOSUCH(1)")

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SemanticError):
            build("  x = A(1, 2)")

    def test_scalar_with_subscript_rejected(self):
        with pytest.raises(SemanticError):
            build("  y = 1.0\n  x = y(1)")

    def test_array_without_subscript_rejected(self):
        with pytest.raises(SemanticError):
            build("  x = A")


class TestStatements:
    def test_loop_var_marked(self):
        proc = build("  DO i = 1, 10\n    A(i) = 0.0\n  END DO")
        assert proc.symbols.require("I").is_loop_var

    def test_non_integer_loop_var_rejected(self):
        with pytest.raises(SemanticError):
            build("  DO x = 1, 10\n  END DO", decls="  REAL x\n")

    def test_loop_levels(self):
        proc = build(
            "  DO i = 1, 2\n    DO j = 1, 2\n      A(i) = B(j)\n    END DO\n  END DO"
        )
        loops = list(proc.loops())
        assert [l.level for l in loops] == [1, 2]

    def test_nesting_level_of_stmt(self):
        proc = build(
            "  DO i = 1, 2\n    DO j = 1, 2\n      A(i) = B(j)\n    END DO\n  END DO"
        )
        stmt = next(proc.assignments())
        assert stmt.nesting_level == 2

    def test_independent_clauses_on_loop(self):
        src = (
            "PROGRAM t\nREAL C(4)\n"
            "!HPF$ INDEPENDENT, NEW(C), REDUCTION(S)\n"
            "DO k = 1, 4\n  C(k) = 0.0\nEND DO\nEND\n"
        )
        proc = parse_and_build(src)
        loop = next(proc.loops())
        assert loop.independent
        assert loop.new_vars == ("C",)
        assert loop.reduction_vars == ("S",)

    def test_goto_target_validated(self):
        with pytest.raises(SemanticError):
            build("  GO TO 99")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SemanticError):
            build("10 CONTINUE\n10 CONTINUE")


class TestDirectiveResolution:
    def test_processors_spec(self):
        src = "PROGRAM t\nREAL A(8)\n!HPF$ PROCESSORS P(2, 4)\n!HPF$ DISTRIBUTE (BLOCK, *) :: A\nEND\n"
        with pytest.raises(DirectiveError):
            # rank mismatch: A is 1-D but 2 formats given
            parse_and_build(src)

    def test_distribute_resolved(self):
        src = "PROGRAM t\nREAL A(8)\n!HPF$ DISTRIBUTE (CYCLIC(2)) :: A\nEND\n"
        proc = parse_and_build(src)
        spec = proc.distribute_of(proc.symbols.require("A"))
        assert spec.formats == (("CYCLIC", 2),)

    def test_align_axis_map(self):
        src = (
            "PROGRAM t\nREAL A(8, 8), B(8)\n"
            "!HPF$ ALIGN B(i) WITH A(i + 1, *)\n"
            "!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: A\nEND\n"
        )
        proc = parse_and_build(src)
        spec = proc.align_of(proc.symbols.require("B"))
        assert spec.axis_map == ((0, 1, 1),)
        assert spec.replicated_target_dims == (1,)

    def test_align_stride(self):
        src = (
            "PROGRAM t\nREAL A(16), B(8)\n"
            "!HPF$ ALIGN B(i) WITH A(2 * i)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\nEND\n"
        )
        proc = parse_and_build(src)
        spec = proc.align_of(proc.symbols.require("B"))
        assert spec.axis_map == ((0, 2, 0),)

    def test_align_rank_mismatch_rejected(self):
        src = (
            "PROGRAM t\nREAL A(8, 8), B(8)\n"
            "!HPF$ ALIGN B(i, j) WITH A(i, j)\nEND\n"
        )
        with pytest.raises(DirectiveError):
            parse_and_build(src)

    def test_distribute_non_array_rejected(self):
        src = "PROGRAM t\nREAL x\n!HPF$ DISTRIBUTE (BLOCK) :: x\nEND\n"
        with pytest.raises(DirectiveError):
            parse_and_build(src)


class TestProcedureNavigation:
    def test_common_loops(self):
        proc = build(
            "  DO i = 1, 2\n    A(i) = 0.0\n    DO j = 1, 2\n      B(j) = 1.0\n"
            "    END DO\n  END DO"
        )
        stmts = list(proc.assignments())
        common = proc.common_loops(stmts[0], stmts[1])
        assert [l.var.name for l in common] == ["I"]

    def test_stmt_of_ref(self):
        proc = build("  A(1) = B(2)")
        stmt = next(proc.assignments())
        ref = next(iter(stmt.rhs.refs()))
        assert proc.stmt_of_ref(ref) is stmt

    def test_dump_contains_statements(self):
        proc = build("  A(1) = B(2)")
        assert "A(1)" in proc.dump()


class TestTheTreeIsLeftAsParsed:
    """``PassManager.syntax_tree`` hands one AST to every build of a
    source text: a build may not change it."""

    @staticmethod
    def _sources():
        import pathlib

        from repro.programs import appsp_source, dgefa_source, tomcatv_source

        from ..lang.test_inline import BASIC

        corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
        return [
            tomcatv_source(n=12, niter=1),
            dgefa_source(n=8),
            appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
            BASIC,  # a CALL to inline: the inliner rewrites in place
            *(path.read_text() for path in sorted(corpus.glob("*.hpf"))),
        ]

    def test_build_procedure_does_not_touch_the_tree(self):
        from repro.ir.build import build_procedure
        from repro.lang import parse_program

        for source in self._sources():
            tree = parse_program(source)
            first = build_procedure(tree)
            assert tree == parse_program(source)
            second = build_procedure(tree)
            assert second is not first
            assert [type(s) for s in second.all_stmts()] == [
                type(s) for s in first.all_stmts()
            ]
            assert [s.name for s in second.symbols.arrays()] == [
                s.name for s in first.symbols.arrays()
            ]
