"""Parity: the lowered fast path (``repro.machine.lowering``) is
bit-for-bit identical to the tree-walking interpreter.

Every IR expression and statement kind — unary ops, every binary op
(including Fortran integer division), every intrinsic, GOTO into a
loop body, zero-trip loops, negative steps, reductions, privatized
control flow — runs through both the lowered and the interpreted path
of the sequential interpreter *and* of the SPMD simulator, asserting
identical values, virtual clocks, and message counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import run_sequential
from repro.core import CompilerOptions, compile_source
from repro.ir import parse_and_build
from repro.machine import simulate


def assert_parity(source, inputs=None, procs=4, strategy="selected", **opts):
    """Run ``source`` four ways and require exact agreement.

    Sequential fast vs slow: identical stores. SPMD fast vs slow:
    identical clocks, traffic stats, gathered arrays, and per-rank
    memory state. The simulator result must also match the sequential
    ground truth numerically.
    """
    fast_seq = run_sequential(parse_and_build(source), inputs, fast_path=True)
    slow_seq = run_sequential(parse_and_build(source), inputs, fast_path=False)
    assert fast_seq.scalars == slow_seq.scalars
    for name, values in slow_seq.arrays.items():
        assert fast_seq.arrays[name].tobytes() == values.tobytes(), name

    compiled = compile_source(
        source, CompilerOptions(strategy=strategy, num_procs=procs, **opts)
    )
    fast = simulate(compiled, inputs)
    slow = simulate(compiled, inputs, tier="interpreted")
    assert fast.clocks.snapshot() == slow.clocks.snapshot()
    assert fast.stats.as_dict() == slow.stats.as_dict()
    for name, values in slow_seq.arrays.items():
        gathered = fast.gather(name)
        assert gathered.tobytes() == slow.gather(name).tobytes(), name
        assert np.allclose(gathered, values), name
    for fm, sm in zip(fast.memories, slow.memories):
        for name in sm.arrays:
            assert fm.arrays[name].tobytes() == sm.arrays[name].tobytes()
            assert fm.valid[name].tobytes() == sm.valid[name].tobytes()
        assert fm.scalars == sm.scalars
        assert fm.scalar_valid == sm.scalar_valid
    return fast, slow


def _inputs(names, n, seed=0, lo=1.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(lo, hi, n) for name in names}


HEADER = (
    "PROGRAM P\n  PARAMETER (n = {n})\n"
    "  REAL A(n), B(n), C(n)\n{decls}"
    "!HPF$ ALIGN (i) WITH A(i) :: B, C\n"
    "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
)


def program(body, n=12, decls=""):
    return HEADER.format(n=n, decls=decls) + body + "END PROGRAM\n"


class TestStatementKinds:
    def test_unops_and_logical_binops(self):
        # UnOp -, .NOT.; BinOp .AND./.OR. and every comparison,
        # stored through a LOGICAL scalar and through predicates.
        src = program(
            "  DO i = 1, n\n"
            "    f = (B(i) > 1.5) .AND. .NOT. (B(i) >= 1.9)\n"
            "    g = (B(i) <= 1.1) .OR. (B(i) < 1.05) .OR. (B(i) == C(i))\n"
            "    IF (f .OR. g) THEN\n"
            "      A(i) = -B(i)\n"
            "    ELSE\n"
            "      A(i) = -(-C(i))\n"
            "    END IF\n"
            "    IF (B(i) /= C(i)) THEN\n"
            "      A(i) = A(i) + 0.5\n"
            "    END IF\n"
            "  END DO\n",
            decls="  LOGICAL f, g\n",
        )
        assert_parity(src, _inputs("ABC", 12))

    def test_arithmetic_binops_and_integer_division(self):
        # + - * / ** on reals; Fortran toward-zero integer division
        # with every sign combination; MOD on negatives.
        src = program(
            "  DO i = 1, n\n"
            "    k = 2 * i - n\n"
            "    m = k / 3 + (-k) / 3 + k / (-3) + (0 - 7) / (i + 1)\n"
            "    m = m + MOD(k, 4) + MOD(-k, 4)\n"
            "    A(i) = (B(i) + 1.5) * 2.0 / 4.0 + C(i) ** 2 - 0.25\n"
            "    A(i) = A(i) + REAL(m) / 8.0\n"
            "  END DO\n",
            decls="  INTEGER k, m\n",
        )
        assert_parity(src, _inputs("ABC", 12))

    def test_every_intrinsic(self):
        src = program(
            "  DO i = 1, n\n"
            "    A(i) = SQRT(ABS(B(i) - 1.5)) + EXP(B(i) * 0.1) + LOG(B(i))\n"
            "    A(i) = A(i) + SIN(B(i)) + COS(C(i)) + SIGN(0.5, B(i) - 1.5)\n"
            "    A(i) = A(i) + MAX(B(i), C(i), 1.2) + MIN(B(i), C(i))\n"
            "    k = INT(B(i) * 10.0)\n"
            "    A(i) = A(i) + REAL(MOD(k, 3)) + FLOAT(k) / 100.0\n"
            "  END DO\n",
            decls="  INTEGER k\n",
        )
        assert_parity(src, _inputs("ABC", 12))

    def test_goto_into_loop_body(self):
        # Figure 7 shape: a forward GO TO targeting a label inside the
        # loop, skipping statements, under privatized control flow.
        src = program(
            "  DO i = 1, n\n"
            "    IF (B(i) /= 0.0) THEN\n"
            "      A(i) = A(i) / B(i)\n"
            "      IF (B(i) < 1.3) GO TO 100\n"
            "    ELSE\n"
            "      A(i) = C(i)\n"
            "    END IF\n"
            "    C(i) = C(i) * C(i)\n"
            "100 CONTINUE\n"
            "  END DO\n"
        )
        assert_parity(src, _inputs("ABC", 12))

    def test_zero_trip_and_negative_step_loops(self):
        src = program(
            "  DO i = n, 1, -1\n"
            "    A(i) = B(i) + 1.0\n"
            "  END DO\n"
            "  DO i = 5, 1\n"
            "    A(i) = 999.0\n"
            "  END DO\n"
            "  DO i = n, 2, -2\n"
            "    A(i) = A(i) * 2.0 - C(i)\n"
            "  END DO\n"
        )
        assert_parity(src, _inputs("ABC", 12))

    def test_reduction_and_broadcast(self):
        src = program(
            "  s = 0.0\n"
            "  DO i = 1, n\n"
            "    s = s + B(i) * B(i)\n"
            "  END DO\n"
            "  DO i = 1, n\n"
            "    A(i) = s + C(i)\n"
            "  END DO\n",
            decls="  REAL s\n",
        )
        assert_parity(src, _inputs("ABC", 12))

    def test_loop_bounds_from_expressions(self):
        # Lowered bound closures: bounds depending on scalars and
        # arithmetic, plus a triangular nest.
        src = program(
            "  k = n / 2\n"
            "  DO i = k - 1, 2 * k - 2\n"
            "    A(i) = B(i) + 1.0\n"
            "  END DO\n"
            "  DO i = 1, n\n"
            "    DO j = i, n\n"
            "      C(j) = C(j) + 0.001\n"
            "    END DO\n"
            "  END DO\n",
            decls="  INTEGER k\n",
        )
        assert_parity(src, _inputs("ABC", 12))


@pytest.mark.parametrize(
    "strategy", ["selected", "producer", "replication", "noalign"]
)
def test_parity_under_every_strategy(strategy):
    src = program(
        "  DO i = 2, n - 1\n"
        "    t = B(i - 1) + B(i + 1)\n"
        "    A(i) = t * 0.5 + C(i)\n"
        "  END DO\n",
        decls="  REAL t\n",
    )
    assert_parity(src, _inputs("ABC", 12), strategy=strategy)


@pytest.mark.parametrize(
    "opts",
    [
        {"message_vectorization": False},
        {"combine_messages": True},
        {"align_reductions": False},
        {"partial_privatization": False},
    ],
)
def test_parity_under_option_ablations(opts):
    src = program(
        "  s = 0.0\n"
        "  DO i = 2, n - 1\n"
        "    A(i) = B(i - 1) + C(i + 1)\n"
        "    s = s + A(i)\n"
        "  END DO\n"
        "  DO i = 1, n\n"
        "    C(i) = s\n"
        "  END DO\n",
        decls="  REAL s\n",
    )
    assert_parity(src, _inputs("ABC", 12), **opts)


# ---------------------------------------------------------------------------
# Property: random expression trees agree in both paths.
# ---------------------------------------------------------------------------


@st.composite
def expressions(draw, depth=0):
    """A random, numerically safe expression over B(i), C(i), i."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                ["B(i)", "C(i)", "REAL(i)", "1.25", "0.5", "B(i + 1)"]
            )
        )
    kind = draw(st.sampled_from(["bin", "un", "call", "call2"]))
    a = draw(expressions(depth=depth + 1))
    if kind == "un":
        return f"(-{a})"
    if kind == "call":
        name = draw(st.sampled_from(["ABS", "SQRT", "COS", "SIN"]))
        inner = f"ABS({a})" if name == "SQRT" else a
        return f"{name}({inner})"
    b = draw(expressions(depth=depth + 1))
    if kind == "call2":
        name = draw(st.sampled_from(["MAX", "MIN", "SIGN"]))
        return f"{name}({a}, {b})"
    op = draw(st.sampled_from(["+", "-", "*"]))
    return f"({a} {op} {b})"


@given(expressions(), st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_random_expressions_agree(expr, procs):
    n = 10
    src = program(
        f"  DO i = 2, n - 1\n    A(i) = {expr}\n  END DO\n", n=n
    )
    assert_parity(src, _inputs("ABC", n, seed=3), procs=procs)
