"""The vectorized sequential reference against the tree-walking
interpreter, bit for bit.

``run_sequential(proc, inputs)`` executes eligible loops as numpy lane
operations (``repro.codegen.seqvec``); ``fast_path=False`` is the
tree-walking interpreter, which shares nothing with it but the walker.
Every program here runs both ways and must agree on every array byte,
every scalar value *and Python type*, the post-loop index values, the
``WalkStats``, and — when the program fails — the exception type, its
message and the partial store it leaves behind.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.seq import SequentialInterpreter, seeded_inputs
from repro.codegen.seqvec import _Plan, _SeqCtx
from repro.codegen.veceval import _Bail
from repro.errors import InterpreterError
from repro.fuzz import generate
from repro.fuzz.harness import store_mismatch
from repro.ir.build import parse_and_build
from repro.ir.stmt import LoopStmt
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.programs import figures

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS.glob("*.hpf"))


def _run(source: str, fast_path: bool, seed: int = 0, max_steps=None):
    """(interpreter, raised exception or None) of one run."""
    proc = parse_and_build(source)
    interp = SequentialInterpreter(proc, fast_path=fast_path)
    for name, values in seeded_inputs(proc, seed).items():
        interp.store.set_array(name, values)
    if max_steps is not None:
        interp.stats.max_steps = max_steps
    try:
        interp.run()
    except (InterpreterError, ArithmeticError, ValueError) as exc:
        return interp, exc
    return interp, None


def assert_parity(source: str, seed: int = 0, max_steps=None):
    """Run both ways, compare everything; returns the vectorized
    run's interpreter and error for further assertions."""
    tree, tree_err = _run(source, False, seed, max_steps)
    vec, vec_err = _run(source, True, seed, max_steps)
    assert type(vec_err) is type(tree_err)
    assert str(vec_err) == str(tree_err)
    assert store_mismatch(tree.store, vec.store) is None
    assert vec.env == tree.env
    assert {k: type(v) for k, v in vec.env.items()} == {
        k: type(v) for k, v in tree.env.items()
    }
    if tree_err is None:  # a failing statement is counted once it starts
        assert vec.stats == tree.stats
    return vec, vec_err


def _program(body: str, decls: str = "REAL A(n), B(n), C(n)", n: int = 8) -> str:
    return (
        "PROGRAM P\n"
        f"  PARAMETER (n = {n})\n"
        f"  {decls}\n"
        f"{body}"
        "END PROGRAM\n"
    )


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------

KERNELS = {
    "tomcatv": tomcatv_source(n=17, niter=2),
    "dgefa": dgefa_source(n=12),
    "appsp-1d": appsp_source(nx=8, ny=8, nz=8, niter=2, procs=4,
                             distribution="1d"),
    "appsp-2d": appsp_source(nx=8, ny=8, nz=8, niter=2, procs=4),
    "appsp-auto": appsp_source(nx=7, ny=8, nz=9, niter=1, procs=4,
                               use_new_clause=False),
}

FIGURES = {
    "figure1": figures.figure1_source(n=20),
    "figure2": figures.figure2_source(n=12),
    "figure4": figures.figure4_source(n=6),
    "figure5": figures.figure5_source(n=12),
    "figure6": figures.figure6_source(n=8),
    "figure7": figures.figure7_source(n=16),
}


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("seed", (0, 1))
def test_kernels(name, seed):
    vec, err = assert_parity(KERNELS[name], seed)
    assert err is None
    assert vec.hooks.vector.taken > 0


@pytest.mark.parametrize("name", FIGURES)
def test_paper_figures(name):
    assert_parity(FIGURES[name])


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_corpus(path):
    _vec, err = assert_parity(path.read_text())
    assert err is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_programs(seed):
    program = generate(seed)
    assert_parity(program.emit(program.procs))


# ---------------------------------------------------------------------------
# Perfect two-deep nests: flattened, or not, and why
# ---------------------------------------------------------------------------

#: loop ranges as (low, high, step): ascending and descending, unit and
#: not, a single trip, no trip at all
RANGES = [
    "1, n", "2, n - 1", "n, 1, -1", "1, n, 2", "n, 2, -3", "n - 1, 2, -2",
    "2, 2", "3, 2",
]

#: statements of a nest body.  Most flatten; the others must keep the
#: serial plan, decline, or bail on a value — parity either way
NEST_STATEMENTS = {
    "transposed read": "A(i,j) = B(i,j) * 2.0 + C(j,i)",
    "one-axis reads": "t = B(i,j) + C(i,1)\n      C(i,j) = t * t - B(2,j)",
    "integer lanes": "KK(i,j) = i * 3 - j",
    "diagonals": "A(i,j) = B(i,i) + KK(j,j)",
    "transposed store": "B(j,i) = A(i,j) + 1.0",
    "+": "s = s + A(i,j) * B(i,j)",
    "*": "p = (0.9 + 0.2 * B(i,j)) * p",
    "MAX": "q = MAX(q, B(i,j) - 1.0)",
    "MIN": "r = MIN(C(i,j), r)",
    "integer +": "k = k + (i + j) * 1073741823",  # near the int64 bail
    "integer *": "k = k * 3",
    "integer MAX": "m = MAX(m, i - j)",
    "MAX of -0.0": "z = MAX(z, 0.0 * (0.0 - B(i,j)))",  # bails
    "store past n": "A(i + 1,j) = B(i,j)",  # where i reaches n only
    "read past n": "t = B(i,j + 1)\n      C(i,j) = t",  # ... where j does
    "no inner-only subscript": "D(i + j,j) = B(i,j)",  # not flattened
    "no outer-only subscript": "D(i,i + j) = B(i,j)",  # declines
    "inner loop carries": "A(i,j) = A(i - 1,j) + B(i,j)",  # serial plan
    "outer loop carries": "A(i,j) = A(i,j - 1) * 0.5",  # declines
}


def _nest(outer: str, inner: str, statements, n: int = 6, k0: int = 0) -> str:
    return _program(
        "  s = 0.1\n  p = 1.0\n  q = 0.0 - 9.0\n  r = 9.0\n"
        f"  z = 0.0 * (0.0 - 1.0)\n  k = {k0}\n  m = 0 - 5\n"
        f"  DO j = {outer}\n    DO i = {inner}\n"
        + "".join(f"      {stmt}\n" for stmt in statements)
        + "    END DO\n  END DO\n  C(1,1) = i + j\n",
        decls="REAL A(n,n), B(n,n), C(n,n), D(16,16)\n  INTEGER KK(n,n)\n"
        "  REAL s, p, q, r, t, z\n  INTEGER k, m",
        n=n,
    )


@st.composite
def perfect_nests(draw):
    statements = draw(st.lists(
        st.sampled_from(sorted(NEST_STATEMENTS.values())),
        min_size=1, max_size=4, unique=True,
    ))
    source = _nest(
        draw(st.sampled_from(RANGES)), draw(st.sampled_from(RANGES)),
        statements,
        n=draw(st.integers(min_value=5, max_value=8)),
        k0=draw(st.sampled_from([0, -7, 2**62 - 2**40, 2**62 - 5])),
    )
    max_steps = draw(st.one_of(st.none(), st.integers(8, 400)))
    return source, draw(st.integers(0, 3)), max_steps


@settings(max_examples=150, deadline=None)
@given(perfect_nests())
def test_generated_perfect_nests(case):
    source, seed, max_steps = case
    assert_parity(source, seed, max_steps)


def _nest_run(outer, inner, *names, **kw):
    """(vectorizer, error, the outer loop's plan or decline reason) of
    a nest of the named ``NEST_STATEMENTS``."""
    statements = [NEST_STATEMENTS[name] for name in names]
    vec, err = assert_parity(_nest(outer, inner, statements, **kw))
    vector = vec.hooks.vector
    return vector, err, next(iter(vector.verdicts.values()))


@pytest.mark.parametrize("outer", ["1, n", "n, 2, -3", "1, n, 2"])
@pytest.mark.parametrize("inner", ["2, n - 1", "n, 1, -1", "n - 1, 2, -2", "2, 2"])
def test_all_four_folds_in_a_flattened_nest_any_direction(outer, inner):
    vector, err, plan = _nest_run(
        outer, inner, "transposed read", "integer lanes",
        "+", "*", "MAX", "MIN", "integer MAX",
    )
    assert err is None and vector.bails == {}
    assert vector.taken == 1 and plan.flat is not None
    assert sorted(op for op, _ in plan.folds.values()) == [
        "*", "+", "MAX", "MAX", "MIN",
    ]


def test_a_zero_trip_inner_loop_bails_the_flattened_takeover():
    vector, err, plan = _nest_run("1, n", "3, 2", "transposed read")
    assert err is None and plan.flat is not None
    assert vector.taken == 0
    assert list(vector.bails.values()) == ["zero-trip inner loop"]


@pytest.mark.parametrize("k0, reason", [
    (2**62 - 5, {"INTEGER fold may exceed int64"}),  # the inner loops' too
    (2**62 - 2**40, set()),
])
def test_integer_fold_near_the_int64_bail(k0, reason):
    vector, err, plan = _nest_run("1, n", "1, n", "integer +", k0=k0)
    assert err is None and plan.flat is not None
    assert set(vector.bails.values()) == reason
    assert vector.taken == (0 if reason else 1)


def test_a_max_fold_ending_on_minus_zero_bails():
    vector, err, plan = _nest_run("1, n", "1, n", "MAX of -0.0")
    assert err is None and plan.flat is not None
    assert vector.taken == 0  # the inner loops bail too, one by one
    assert set(vector.bails.values()) == {"MAX fold result is a zero or NaN"}


@pytest.mark.parametrize("outer, inner, stmt", [
    ("1, n", "1, n", "store past n"),  # the last lane of each column
    ("1, n", "2, n - 1", "read past n"),  # the last column
    ("n, 1, -1", "2, n - 1", "read past n"),  # the first column
])
def test_out_of_bounds_at_the_edge_lanes_only(outer, inner, stmt):
    vector, err, plan = _nest_run(outer, inner, "integer lanes", stmt)
    assert "out of bounds" in str(err)
    assert plan.flat is not None
    # (the columns before the bad one are taken one by one)
    assert "out of bounds" in vector.bails[next(iter(vector.verdicts))]


def test_a_store_without_an_inner_only_subscript_is_not_flattened():
    vector, err, plan = _nest_run("1, n", "1, n", "no inner-only subscript")
    assert err is None
    assert plan.flat is None and vector.taken == 1  # the serial plan


def test_a_store_without_an_outer_only_subscript_declines():
    vector, err, plan = _nest_run("1, n", "1, n", "no outer-only subscript")
    assert err is None
    assert plan == "store to D is lane-invariant"
    assert vector.taken == 6  # the inner loop, once per outer iteration


def test_an_inner_loop_that_carries_a_value_keeps_the_serial_plan():
    vector, err, plan = _nest_run("1, n", "2, n", "inner loop carries")
    assert err is None
    assert plan.flat is None and vector.taken == 1


def test_step_limit_inside_a_flattened_nest():
    source = _nest(
        "1, n", "1, n",
        [NEST_STATEMENTS["transposed read"], NEST_STATEMENTS["+"]],
    )
    full, _ = _run(source, True)
    assert full.hooks.vector.taken == 1
    total = full.stats.statements_executed
    for limit in (9, 40, total - 2):  # (the last step follows the nest)
        vec, err = assert_parity(source, max_steps=limit)
        assert str(err) == "execution step limit exceeded"
        # (inner loops are taken until the limit is in reach)
        assert "execution step limit" in vec.hooks.vector.bails.values()
    vec, err = assert_parity(source, max_steps=total)
    assert err is None and vec.hooks.vector.taken == 1


def test_tomcatv_is_five_takeovers_three_of_them_flattened():
    """The stencil, residual and update nests are perfect and carry no
    value at either level: one flattened takeover each, the residual
    nest folding its two ``MAX`` updates over all the lanes.  The two
    column sweeps keep the serial plan (their inner loops carry)."""
    vec, _ = assert_parity(tomcatv_source(n=17, niter=1))
    vector = vec.hooks.vector
    assert vector.taken == 5
    assert vector.bails == {}
    plans = [v for v in vector.verdicts.values() if isinstance(v, _Plan)]
    assert [p.flat is not None for p in plans] == [True, True, False, False, True]
    assert [len(p.folds) for p in plans] == [0, 2, 0, 0, 0]
    reasons = {v for v in vector.verdicts.values() if isinstance(v, str)}
    assert reasons == {"store to AA is lane-invariant"}  # the DO it loop


def test_dgefa_update_nest_is_one_statement_per_pivot(monkeypatch):
    """``A(i,j) = A(i,j) + A(i,k) * A(k,j)`` is evaluated once per
    pivot over the (n-k) x (n-k) lanes — not once per column."""
    n = 24
    source = dgefa_source(n=n)
    (update,) = [
        number for number, line in enumerate(source.splitlines(), 1)
        if "A(i,j) = A(i,j) + A(i,k) * A(k,j)" in line
    ]
    evaluated = []
    assign = _SeqCtx._assign
    monkeypatch.setattr(
        _SeqCtx, "_assign",
        lambda self, stmt: (evaluated.append(stmt.line), assign(self, stmt))[1],
    )
    assert_parity(source)
    # (the tree-walking run evaluates nothing here; the last pivot's
    # nest is a single column and is not taken)
    assert evaluated.count(update) == n - 2


# ---------------------------------------------------------------------------
# Errors and partial state
# ---------------------------------------------------------------------------


def test_out_of_bounds_store_in_the_third_statement():
    vec, err = assert_parity(_program(
        "  DO i = 1, n\n"
        "    A(i) = B(i) * 2.0\n"
        "    B(i) = A(i) + 1.0\n"
        "    C(i + 1) = A(i)\n"
        "  END DO\n"
    ))
    assert "out of bounds" in str(err)
    assert vec.hooks.vector.taken == 0
    assert "out of bounds" in next(iter(vec.hooks.vector.bails.values()))


def test_zero_divisor_at_one_lane():
    vec, err = assert_parity(_program(
        "  DO i = 1, n\n"
        "    C(i) = A(i) + 1.0\n"
        "    A(i) = 1.0 / (B(i) - B(5))\n"
        "  END DO\n"
    ))
    assert str(err) == "division by zero"
    assert vec.hooks.vector.taken == 0


def test_integer_zero_divisor_at_one_lane():
    _vec, err = assert_parity(_program(
        "  DO i = 1, n\n"
        "    K(i) = n / (i - 3)\n"
        "  END DO\n",
        decls="INTEGER K(n)",
    ))
    assert str(err) == "integer division by zero"


def test_read_of_an_undefined_scalar():
    _vec, err = assert_parity(_program(
        "  DO i = 1, n\n"
        "    B(i) = A(i) * 2.0\n"
        "    A(i) = A(i) + s\n"
        "  END DO\n",
        decls="REAL A(n), B(n)\n  REAL s",
    ))
    assert str(err) == "read of undefined scalar S"


def test_negative_square_root_at_one_lane():
    _vec, err = assert_parity(_program(
        "  DO i = 1, n\n"
        "    A(i) = SQRT(B(i) - 1.0)\n"
        "  END DO\n"
    ))
    assert isinstance(err, ValueError)  # math.sqrt's own domain error


def test_real_stored_to_integer_truncates_like_the_interpreter():
    vec, err = assert_parity(_program(
        "  DO i = 1, n\n"
        "    k = A(i) * 10.0\n"
        "    K2(i) = k + i\n"
        "  END DO\n",
        decls="REAL A(n)\n  INTEGER K2(n)\n  INTEGER k",
    ))
    assert err is None
    assert vec.hooks.vector.taken == 0  # REAL -> INTEGER stays scalar


@pytest.mark.parametrize("bounds", ["5, 4", "3, 3", "4, 3, 1", "3, 4, -1"])
def test_zero_and_one_trip_loops_are_not_taken(bounds):
    vec, err = assert_parity(_program(
        f"  DO i = {bounds}\n"
        "    A(i) = B(i) + 1.0\n"
        "  END DO\n"
        "  C(1) = i\n"
    ))
    assert err is None
    assert vec.hooks.vector.taken == 0


def test_negative_step():
    vec, err = assert_parity(_program(
        "  DO i = n, 2, -2\n"
        "    t = B(i) + B(i - 1)\n"
        "    A(i) = t * 0.5\n"
        "  END DO\n"
        "  C(1) = i + t\n",
        decls="REAL A(n), B(n), C(n)\n  REAL t",
    ))
    assert err is None
    assert vec.hooks.vector.taken == 1
    assert vec.env["I"] == 0


def test_zero_step_in_an_inner_loop():
    _vec, err = assert_parity(_program(
        "  m = 0\n"
        "  DO j = 1, n\n"
        "    DO i = 1, n, m\n"
        "      A(i, j) = 1.0\n"
        "    END DO\n"
        "  END DO\n",
        decls="REAL A(n, n)\n  INTEGER m",
    ))
    assert "zero step" in str(err)


def test_subscript_through_an_outer_scalar_and_a_diagonal():
    vec, err = assert_parity(_program(
        "  l = 3\n"
        "  DO j = 1, n\n"
        "    t = A(l, j)\n"
        "    A(l, j) = A(2, j)\n"
        "    A(2, j) = t\n"
        "  END DO\n"
        "  DO i = 1, n\n"
        "    A(i, i) = A(i, i) * 2.0 + A(i, n + 1 - i)\n"
        "  END DO\n"
        "  DO i = n, 1, -1\n"
        "    B(i, n + 1 - i) = A(n + 1 - i, i)\n"
        "  END DO\n",
        decls="REAL A(n, n), B(n, n)\n  REAL t\n  INTEGER l",
    ))
    assert err is None
    # row i is touched in iteration i only: both diagonals are taken,
    # gathered and scattered through index vectors
    assert vec.hooks.vector.taken == 3


def test_signed_zeros_follow_python_max_and_min():
    """``MAX(-0.0, 0.0)`` keeps its first argument in the interpreter;
    the lane evaluator must too, and a fold that ends on a zero bails."""
    vec, err = assert_parity(_program(
        "  z = 0.0\n"
        "  DO i = 1, n\n"
        "    t = z * (0.0 - B(i))\n"
        "    A(i) = MAX(t, z)\n"
        "    C(i) = MIN(z, t)\n"
        "    B(i) = MAX(z, t)\n"
        "  END DO\n"
        "  r = 0.0 - z\n"
        "  DO i = 1, n\n"
        "    r = MAX(r, A(i))\n"
        "  END DO\n",
        decls="REAL A(n), B(n), C(n)\n  REAL z, t, r",
    ))
    assert err is None
    assert vec.hooks.vector.taken == 1
    assert "zero or NaN" in next(iter(vec.hooks.vector.bails.values()))


def test_folds_run_in_iteration_order():
    """Sums whose pairwise and sequential orders round differently;
    REAL and INTEGER accumulators; all four operators."""
    vec, err = assert_parity(_program(
        "  s = 0.1\n"
        "  p = 1.0\n"
        "  k = 0\n"
        "  q = 9.0\n"
        "  DO i = 1, n\n"
        "    A(i) = A(i) * 0.001 + 1.0 / i\n"
        "  END DO\n"
        "  DO i = 1, n\n"
        "    s = s + A(i) * B(i)\n"
        "    p = A(i) * p\n"
        "    k = MAX(k, i - 7)\n"
        "    q = MIN(B(i), q)\n"
        "  END DO\n",
        decls="REAL A(n), B(n)\n  REAL s, p, q\n  INTEGER k",
        n=60,
    ))
    assert err is None
    vector = vec.hooks.vector
    assert vector.taken == 2 and vector.bails == {}
    folds = [v.folds for v in vector.verdicts.values() if v.folds]
    assert sorted(op for op, _ in folds[0].values()) == ["*", "+", "MAX", "MIN"]


def test_integers_beyond_int64_stay_python_integers():
    """int64 lanes would wrap where the interpreter's integers grow:
    a factorial fold and a squared product both bail."""
    vec, err = assert_parity(_program(
        "  k = 1\n"
        "  DO i = 1, n\n"
        "    k = k * i\n"
        "  END DO\n"
        "  DO i = 1, n\n"
        "    m = i * 3000000000\n"
        "    m = m * m\n"
        "  END DO\n"
        "  j = 0\n"
        "  DO i = 1, n\n"
        "    j = j + i * i\n"
        "  END DO\n",
        decls="INTEGER k, m, j",
        n=25,
    ))
    assert err is None
    assert vec.store.scalars["K"] > 2**64 and vec.store.scalars["M"] > 2**64
    assert vec.hooks.vector.taken == 1  # the sum of squares fits
    assert sorted(vec.hooks.vector.bails.values()) == [
        "INTEGER fold may exceed int64",
        "INTEGER lanes may exceed int64",
    ]


# ---------------------------------------------------------------------------
# Step limit and WalkStats
# ---------------------------------------------------------------------------


def test_step_limit_raises_the_same_error_both_ways():
    source = tomcatv_source(n=9, niter=1)
    full, _ = _run(source, True)
    for limit in (10, 200, full.stats.statements_executed - 1):
        vec, err = assert_parity(source, max_steps=limit)
        assert str(err) == "execution step limit exceeded"
    vec, err = assert_parity(source, max_steps=full.stats.statements_executed)
    assert err is None and vec.hooks.vector.taken > 0


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_walk_stats_are_equal_on_the_corpus(path):
    tree, _ = _run(path.read_text(), False)
    vec, _ = _run(path.read_text(), True)
    assert vec.stats == tree.stats
    assert vec.stats.statements_executed > 0


# ---------------------------------------------------------------------------
# Eligibility: every decline reason declines
# ---------------------------------------------------------------------------


def _verdict(body: str, decls: str = "REAL A(n), B(n), C(n)", which: int = 0):
    """The plan of the ``which``-th loop of the program, or the reason
    it has none."""
    proc = parse_and_build(_program(body, decls))
    loops = [s for s in proc.all_stmts() if isinstance(s, LoopStmt)]
    try:
        return _Plan(proc, loops[which])
    except _Bail as why:
        return str(why)


def test_plain_loop_is_taken():
    plan = _verdict("  DO i = 2, n\n    A(i) = B(i - 1) + C(i)\n  END DO\n")
    assert isinstance(plan, _Plan) and plan.folds == {}


def test_carried_dependence_declines():
    assert "loop-carried dependence on A" in _verdict(
        "  DO i = 2, n\n    A(i) = A(i - 1) + B(i)\n  END DO\n"
    )


def test_anti_dependence_declines():
    assert "loop-carried dependence on A" in _verdict(
        "  DO i = 1, n - 1\n    A(i) = A(i + 1) + B(i)\n  END DO\n"
    )


def test_lane_invariant_store_declines():
    assert _verdict(
        "  DO i = 1, n\n    A(1) = B(i)\n  END DO\n"
    ) == "store to A is lane-invariant"


def test_store_separated_only_by_an_inner_index_declines():
    assert _verdict(
        "  DO j = 1, 3\n    DO i = 1, 3\n      A(i + j) = 1.0\n"
        "    END DO\n  END DO\n"
    ) == "store to A is lane-invariant"


def test_use_before_definition_declines():
    assert _verdict(
        "  DO i = 1, n\n    A(i) = t\n    t = B(i)\n  END DO\n",
        decls="REAL A(n), B(n)\n  REAL t",
    ) == "scalar T used before its definition"


def test_definition_in_an_inner_loop_does_not_reach_past_it():
    assert _verdict(
        "  DO j = 1, n\n    DO i = 1, n\n      t = B(i, j)\n    END DO\n"
        "    A(1, j) = t\n  END DO\n",
        decls="REAL A(n, n), B(n, n)\n  REAL t",
    ) == "scalar T used before its definition"


def test_fold_is_recognized_in_an_innermost_loop_or_a_flattened_nest():
    body = (
        "  DO j = 1, n\n    DO i = 1, n\n      s = s + A(i, j)\n"
        "    END DO\n  END DO\n"
    )
    decls = "REAL A(n, n)\n  REAL s"
    for which in (0, 1):
        plan = _verdict(body, decls, which)
        assert isinstance(plan, _Plan)
        assert (plan.flat is not None) == (which == 0)
        assert [op for op, _ in plan.folds.values()] == ["+"]
    # a nest that is not flattened (here: not perfect) folds nothing
    imperfect = body.replace("    DO i", "    A(1, j) = 0.0\n    DO i")
    assert _verdict(imperfect, decls, 0) == "scalar S used before its definition"
    assert isinstance(_verdict(imperfect, decls, 1), _Plan)


def test_accumulator_with_a_second_use_is_not_a_fold():
    assert _verdict(
        "  DO i = 1, n\n    s = s + A(i)\n    B(i) = s\n  END DO\n",
        decls="REAL A(n), B(n)\n  REAL s",
    ) == "scalar S used before its definition"


def test_inner_bound_depending_on_the_lane_variable_declines():
    assert _verdict(
        "  DO j = 1, n\n    DO i = j, n\n      A(i, j) = 1.0\n"
        "    END DO\n  END DO\n",
        decls="REAL A(n, n)",
    ) == "inner bound depends on J"


def test_inner_bound_depending_on_a_body_scalar_or_an_array_declines():
    assert _verdict(
        "  DO j = 1, n\n    m = 3\n    DO i = 1, m\n      A(i, j) = 1.0\n"
        "    END DO\n  END DO\n",
        decls="REAL A(n, n)\n  INTEGER m",
    ) == "inner bound depends on M"
    assert _verdict(
        "  DO j = 1, n\n    DO i = 1, K(1)\n      A(i, j) = 1.0\n"
        "    END DO\n  END DO\n",
        decls="REAL A(n, n)\n  INTEGER K(n)",
    ) == "inner bound reads an array"


def test_subscript_through_a_body_written_scalar_declines():
    assert _verdict(
        "  DO i = 1, n\n    m = i\n    A(m) = B(i)\n  END DO\n",
        decls="REAL A(n), B(n)\n  INTEGER m",
    ) == "subscript depends on body-written scalar M"


def test_non_affine_subscript_declines():
    assert "non-affine subscript" in _verdict(
        "  DO i = 1, 2\n    A(i * i) = B(i)\n  END DO\n"
    )


@pytest.mark.parametrize("stmt, kind", [
    ("IF (B(i) > 1.0) A(i) = 0.0", "IfStmt"),
    ("IF (B(i) > 1.0) GO TO 10", "IfStmt"),
    ("GO TO 10", "GotoStmt"),
    ("STOP", "StopStmt"),
])
def test_control_flow_in_the_body_declines(stmt, kind):
    assert _verdict(
        f"  DO i = 1, n\n    {stmt}\n    A(i) = B(i)\n 10 CONTINUE\n"
        "  END DO\n"
    ) == f"body contains {kind}"
