"""Reduction recognition tests."""

import pytest

from repro.analysis import build_ssa, find_reductions, reduction_for_def
from repro.ir import ScalarRef, build_cfg, parse_and_build


def analyzed(body, decls="  REAL A(10, 10), B(10)\n  REAL s, t\n  INTEGER l\n"):
    proc = parse_and_build(f"PROGRAM T\n{decls}{body}\nEND PROGRAM\n")
    return proc, find_reductions(proc, build_ssa(build_cfg(proc)))


class TestAccumulations:
    def test_sum(self):
        proc, reds = analyzed(
            "  DO i = 1, 10\n    s = 0.0\n    DO j = 1, 10\n      s = s + A(i, j)\n"
            "    END DO\n    B(i) = s\n  END DO"
        )
        assert len(reds) == 1
        r = reds[0]
        assert r.symbol.name == "S" and r.op == "+"
        assert r.loop.var.name == "J"
        assert [str(c) for c in r.candidate_refs] == ["A(I,J)"]

    def test_sum_with_subtract(self):
        proc, reds = analyzed(
            "  s = 0.0\n  DO i = 1, 10\n    s = s - B(i)\n  END DO\n  t = s"
        )
        assert len(reds) == 1 and reds[0].op == "+"

    def test_product(self):
        proc, reds = analyzed(
            "  s = 1.0\n  DO i = 1, 10\n    s = s * B(i)\n  END DO\n  t = s"
        )
        assert reds[0].op == "*"

    def test_max_intrinsic(self):
        proc, reds = analyzed(
            "  s = 0.0\n  DO i = 1, 10\n    s = MAX(s, B(i))\n  END DO\n  t = s"
        )
        assert reds[0].op == "MAX"

    def test_min_intrinsic(self):
        proc, reds = analyzed(
            "  s = 0.0\n  DO i = 1, 10\n    s = MIN(s, B(i))\n  END DO\n  t = s"
        )
        assert reds[0].op == "MIN"

    def test_accumulator_read_elsewhere_rejected(self):
        proc, reds = analyzed(
            "  s = 0.0\n  DO i = 1, 10\n    s = s + B(i)\n    B(i) = s\n  END DO"
        )
        assert reds == []

    def test_two_defs_rejected(self):
        proc, reds = analyzed(
            "  s = 0.0\n  DO i = 1, 10\n    s = s + B(i)\n    s = s + 1.0\n  END DO\n"
            "  t = s"
        )
        assert reds == []

    def test_non_carried_assign_not_reduction(self):
        proc, reds = analyzed(
            "  DO i = 1, 10\n    s = B(i) + 1.0\n    B(i) = s\n  END DO"
        )
        assert reds == []


class TestMaxloc:
    SRC = (
        "  s = 0.0\n  l = 1\n  DO i = 1, 10\n"
        "    IF (ABS(B(i)) > s) THEN\n      s = ABS(B(i))\n      l = i\n    END IF\n"
        "  END DO\n  t = s"
    )

    def test_recognized(self):
        proc, reds = analyzed(self.SRC)
        assert len(reds) == 1
        r = reds[0]
        assert r.op == "MAXLOC"
        assert r.symbol.name == "S"
        assert r.location_symbol.name == "L"

    def test_candidate_strips_abs(self):
        proc, reds = analyzed(self.SRC)
        assert [str(c) for c in reds[0].candidate_refs] == ["B(I)"]

    def test_minloc(self):
        src = self.SRC.replace(">", "<")
        proc, reds = analyzed(src)
        assert reds[0].op == "MINLOC"

    def test_value_only_max_idiom(self):
        src = (
            "  s = 0.0\n  DO i = 1, 10\n"
            "    IF (B(i) > s) THEN\n      s = B(i)\n    END IF\n  END DO\n  t = s"
        )
        proc, reds = analyzed(src)
        assert len(reds) == 1 and reds[0].op == "MAX"

    @pytest.mark.parametrize("branch", [
        # a location reading the accumulator the branch writes
        "      s = ABS(B(i))\n      l = s\n",
        # an array store in the branch
        "      s = ABS(B(i))\n      B(i) = 0.0\n",
        # two locations
        "      s = ABS(B(i))\n      l = i\n      t = B(i)\n",
        # the accumulator assigned twice
        "      s = ABS(B(i))\n      s = ABS(B(i))\n",
    ])
    def test_branch_beyond_the_idiom_is_no_maxloc(self, branch):
        src = self.SRC.replace("      s = ABS(B(i))\n      l = i\n", branch)
        assert src != self.SRC
        proc, reds = analyzed(src)
        assert [r for r in reds if r.op in ("MAX", "MAXLOC")] == []

    def test_reduction_for_def_lookup(self):
        proc, reds = analyzed(self.SRC)
        for stmt in reds[0].update_stmts:
            assert reduction_for_def(reds, stmt) is reds[0]


class TestGrowth:
    def test_grows_across_perfect_nest(self):
        proc, reds = analyzed(
            "  s = 0.0\n"
            "  DO i = 1, 10\n    DO j = 1, 10\n      s = s + A(i, j)\n"
            "    END DO\n  END DO\n  t = s"
        )
        assert len(reds) == 1
        assert reds[0].loop.var.name == "I"  # grown to the outer loop

    def test_growth_stops_at_reinitialization(self):
        proc, reds = analyzed(
            "  DO i = 1, 10\n    s = 0.0\n    DO j = 1, 10\n      s = s + A(i, j)\n"
            "    END DO\n    B(i) = s\n  END DO"
        )
        assert reds[0].loop.var.name == "J"

    def test_growth_stops_at_outer_use(self):
        proc, reds = analyzed(
            "  s = 0.0\n"
            "  DO i = 1, 10\n    DO j = 1, 10\n      s = s + A(i, j)\n"
            "    END DO\n    B(i) = s\n  END DO"
        )
        assert reds[0].loop.var.name == "J"


class TestDirectiveAssertions:
    def test_reduction_clause_forces(self):
        src = (
            "PROGRAM T\n  REAL B(10)\n  REAL s\n"
            "!HPF$ INDEPENDENT, REDUCTION(S)\n"
            "  DO i = 1, 10\n    s = B(i) + s * 0.5\n  END DO\n  t = s\nEND PROGRAM\n"
        )
        proc = parse_and_build(src)
        reds = find_reductions(proc, build_ssa(build_cfg(proc)))
        assert any(r.symbol.name == "S" and r.from_directive for r in reds)

    def test_clause_marks_matched_idiom(self):
        src = (
            "PROGRAM T\n  REAL B(10)\n  REAL s\n  s = 0.0\n"
            "!HPF$ INDEPENDENT, REDUCTION(S)\n"
            "  DO i = 1, 10\n    s = s + B(i)\n  END DO\n  t = s\nEND PROGRAM\n"
        )
        proc = parse_and_build(src)
        reds = find_reductions(proc, build_ssa(build_cfg(proc)))
        matching = [r for r in reds if r.symbol.name == "S"]
        assert len(matching) == 1 and matching[0].from_directive
