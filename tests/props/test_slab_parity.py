"""Property: the tier-3 slab engine is bit-for-bit invisible.

Randomized affine loop nests — block/cyclic/replicated mappings,
guards, reductions, negative steps — run through all three engines
(slab kernels, lowered closures, tree-walker).  Clocks, traffic
statistics, and gathered arrays must be identical down to the last bit;
nests the slab engine cannot take must fall back without a trace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompilerOptions, compile_source
from repro.ir.stmt import LoopStmt
from repro.machine import simulate
from repro.obs import Metrics

DISTRIBUTIONS = [
    "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n",  # column-owned: slab-eligible
    "!HPF$ DISTRIBUTE (*, CYCLIC) :: A\n",  # cyclic columns: eligible
    "!HPF$ DISTRIBUTE (BLOCK, *) :: A\n",  # row-owned: executor varies
    "",  # replicated
]


@st.composite
def affine_nests(draw):
    """Random two-level nests over aligned 2-D arrays: affine stencil
    reads, optional guard, optional reduction (any of the four folds:
    an eligible nest takes it whole and folds inside), either sweep
    direction."""
    n = draw(st.integers(min_value=6, max_value=10))
    dist = draw(st.sampled_from(DISTRIBUTIONS))
    oi = draw(st.integers(min_value=-1, max_value=1))
    oj = draw(st.integers(min_value=-1, max_value=1))
    guarded = draw(st.booleans())
    reduced = draw(st.sampled_from([None, None, "+", "*", "MAX", "MIN"]))
    downward = draw(st.booleans())
    body = [
        f"      A(i,j) = B(i {'+' if oi >= 0 else '-'} {abs(oi)},"
        f" j {'+' if oj >= 0 else '-'} {abs(oj)}) + 0.5 * C(i,j)",
        "      C(i,j) = A(i,j) * 1.25 + B(i,j)",
    ]
    if guarded:  # an IfStmt keeps the nest off the slab path entirely
        body.append("      IF (B(i,j) .GT. 1.5) A(i,j) = C(i,j)")
    if reduced in ("+", "*"):
        body.append(f"      S = S {reduced} (0.75 + 0.25 * B(i,j))")
    elif reduced:
        body.append(f"      S = {reduced}(S, ABS(B(i,j)))")
    irange = "n - 1, 2, -1" if downward else "2, n - 1"
    # an ALIGN chain needs a DISTRIBUTE target; fully replicated
    # programs simply carry no directives at all
    directives = (
        "!HPF$ ALIGN (i,j) WITH A(i,j) :: B, C\n" + dist if dist else ""
    )
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL A(n,n), B(n,n), C(n,n)\n  REAL S\n"
        + directives
        + "  S = 1.5\n"
        "  DO j = 2, n - 1\n"
        f"    DO i = {irange}\n"
        + "".join(line + "\n" for line in body)
        + "    END DO\n  END DO\nEND PROGRAM\n"
    )
    eligible = not guarded and dist in DISTRIBUTIONS[:2]
    return source, n, eligible


def run_three_ways(source, n, procs):
    rng = np.random.default_rng(n * 31 + procs)
    inputs = {
        name: rng.uniform(1, 2, (n, n)) for name in ("A", "B", "C")
    }
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    slab = simulate(compiled, inputs, tier="slab")
    lowered = simulate(compiled, inputs, tier="lowered")
    walker = simulate(compiled, inputs, tier="interpreted")
    return slab, lowered, walker


def assert_invisible(slab, other):
    assert slab.clocks.snapshot() == other.clocks.snapshot()
    assert slab.stats.as_dict() == other.stats.as_dict()
    for sm, om in zip(slab.memories, other.memories):
        for name in om.arrays:
            assert sm.arrays[name].tobytes() == om.arrays[name].tobytes()
            assert sm.valid[name].tobytes() == om.valid[name].tobytes()
        assert sm.scalars == om.scalars
        assert sm.scalar_valid == om.scalar_valid
    for name in ("A", "B", "C"):
        assert slab.gather(name).tobytes() == other.gather(name).tobytes()


@given(affine_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_slab_engine_is_bit_for_bit_invisible(case, procs):
    source, n, eligible = case
    slab, lowered, walker = run_three_ways(source, n, procs)
    assert_invisible(slab, lowered)
    assert_invisible(slab, walker)
    if eligible:
        # the slab path must actually have executed these nests
        assert slab.slab_instances > 0
    assert lowered.slab_instances == 0


TRI_DISTS = [
    "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n",
    "!HPF$ DISTRIBUTE (*, CYCLIC) :: A\n",
]


@st.composite
def triangular_nests(draw):
    """Imperfect triangular nests in the dgefa mould: inner bounds
    depend on the outer loop variable, with optional scalar prologue
    and epilogue statements and an optional reduction into one element
    of the owned column.  A lane may also read outside its own column —
    the part of the kernel's signature a rank needs but does not own: a
    pivot-column read of the written array (``A(i,k)``, dgefa's update
    sweep) and halo reads of an unwritten one (``B(i,j±1)``, tomcatv's
    stencil), optionally under an enclosing ``k`` loop that moves the
    pivot.  Returns (source, n, block-distributed?, entries of the
    ``j`` nest when the whole nest is one takeover with such reads
    inside, else None)."""
    n = draw(st.integers(min_value=8, max_value=12))
    dist = draw(st.sampled_from(TRI_DISTS))
    lower = draw(st.booleans())
    prologue = draw(st.booleans())
    epilogue = draw(st.booleans())
    col_reduce = draw(st.booleans())
    pivot = draw(st.booleans()) and not col_reduce
    halo = draw(
        st.sampled_from([(), ("j - 1",), ("j + 1",), ("j - 1", "j + 1")])
    )
    k_loop = draw(st.booleans()) and pivot  # else a reduction over k
    # the pivot column is never written: j starts one past it
    p = "k" if k_loop else "2" if pivot else "1"
    cross = "".join(f" + 0.25 * B(i,{col})" for col in halo)
    if pivot:
        cross += f" + 0.5 * A(i,{p})"
    irange = "j, n - 1" if lower else f"{p} + 1, j"
    lines = [f"  DO j = {p} + 1, n - 1"]
    if prologue:
        lines.append("    S = 0.5 * j")
    lines.append(f"    DO i = {irange}")
    if col_reduce:
        # reduction into one element of the owned column, dgefa-style:
        # A appears only as the fold accumulator
        lines.append(
            f"      C(i,j) = B(i,j) * 1.25 + S{cross}" if prologue
            else f"      C(i,j) = B(i,j) * 1.25 + C(i,j){cross}"
        )
        lines.append("      A(1,j) = A(1,j) + B(i,j)")
    else:
        lines.append(f"      A(i,j) = B(i,j) * 1.25 + C(i,j){cross}")
        lines.append(
            "      C(i,j) = A(i,j) + S" if prologue
            else "      C(i,j) = A(i,j) + B(i,j)"
        )
    lines.append("    END DO")
    if epilogue:
        lines.append("    T = 1.0 + 0.25 * j")
    lines.append("  END DO")
    if k_loop:
        lines = ["  DO k = 2, 3"] + ["  " + ln for ln in lines] + ["  END DO"]
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL A(n,n), B(n,n), C(n,n)\n  REAL S, T\n"
        "!HPF$ ALIGN (i,j) WITH A(i,j) :: B, C\n"
        + dist
        + "  S = 0.0\n  T = 0.0\n"
        + "".join(line + "\n" for line in lines)
        + "END PROGRAM\n"
    )
    # (the column fold is the inner-loop plan's shape, nest or no nest)
    entries = (2 if k_loop else 1) if cross and not col_reduce else None
    return source, n, dist is TRI_DISTS[0], entries


@given(triangular_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_triangular_nests_are_bit_for_bit_invisible(case, procs):
    source, n, block_dist, _ = case
    slab, lowered, walker = run_three_ways(source, n, procs)
    assert_invisible(slab, lowered)
    assert_invisible(slab, walker)
    assert lowered.slab_instances == 0
    if block_dist:
        # column-block triangular nests are squarely in the classifier's
        # extended repertoire: the slab path must actually run
        assert slab.slab_instances > 0


@given(
    triangular_nests().filter(lambda case: case[3] is not None),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_cross_column_reads_are_fetched_inside_one_takeover(case, procs):
    """Reads that leave the lane's column do not push the nest off the
    slab path: the ``j`` nest commits once per entry with its fetches
    replayed inside, byte-identical to both lower tiers in clocks,
    traffic, and every rank's data, validity and versions."""
    source, n, _, entries = case
    rng = np.random.default_rng(n * 31 + procs)
    inputs = {name: rng.uniform(1, 2, (n, n)) for name in ("A", "B", "C")}
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    metrics = Metrics()
    slab = simulate(compiled, inputs, tier="slab", metrics=metrics)
    lowered = simulate(compiled, inputs, tier="lowered")
    walker = simulate(compiled, inputs, tier="interpreted")
    assert_invisible(slab, lowered)
    assert_invisible(slab, walker)
    assert lowered.slab_instances == 0
    assert slab.slab_instances > 0
    assert not any(key.startswith("slab.bail") for key in metrics.counters)
    if procs > 1:  # on one rank there is no owner position to slice by
        (j_loop,) = (
            s.stmt_id
            for s in compiled.proc.all_stmts()
            if isinstance(s, LoopStmt) and s.var.name == "J"
        )
        taken = metrics.counters[f"slab.takeover[loop=S{j_loop}]"]
        assert taken == entries
        assert slab.interp_instances == 2  # ``S`` and ``T`` set up front


@given(triangular_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_auto_tier_matches_forced_tiers(case, procs):
    """tier="auto" consults the TierPlan per nest but must stay
    bit-for-bit identical to every forced tier."""
    source, n, _, _ = case
    rng = np.random.default_rng(n * 31 + procs)
    inputs = {name: rng.uniform(1, 2, (n, n)) for name in ("A", "B", "C")}
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    auto = simulate(compiled, inputs, tier="auto")
    walker = simulate(compiled, inputs, tier="interpreted")
    assert_invisible(auto, walker)
    assert set(auto.tier_decisions.values()) <= {"slab", "lowered"}


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_reduction_slab_keeps_combine_tree(procs):
    """A MAX reduction vectorizes its private accumulation but the
    log-tree combine (and its collective charges) must be unchanged."""
    n = 9
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL B(n,n)\n  REAL S\n"
        "!HPF$ DISTRIBUTE (*, BLOCK) :: B\n"
        "  S = 0.0\n"
        "  DO j = 2, n - 1\n    DO i = 2, n - 1\n"
        "      S = MAX(S, ABS(B(i,j)))\n"
        "    END DO\n  END DO\nEND PROGRAM\n"
    )
    rng = np.random.default_rng(procs)
    inputs = {"B": rng.uniform(-2, 2, (n, n))}
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    slab = simulate(compiled, inputs, tier="slab")
    walker = simulate(compiled, inputs, tier="interpreted")
    assert slab.clocks.snapshot() == walker.clocks.snapshot()
    assert slab.stats.as_dict() == walker.stats.as_dict()
    for sm, om in zip(slab.memories, walker.memories):
        assert sm.scalars == om.scalars
        assert sm.scalar_valid == om.scalar_valid


@st.composite
def serial_column_nests(draw):
    """Column sweeps in tomcatv's tridiagonal mould: the inner loop
    carries a recurrence along ``i`` (``D(i,j)`` from ``D(i∓1,j)``), so
    the columns are the lanes and the inner loop runs step by step.
    Forward or backward, with an optional array store into the own
    column before the sweep (tomcatv's ``D(2,j)``) and after it, a
    scalar temporary defined before its uses, an optional second
    recurrence sharing the temporary, and block or cyclic columns."""
    n = draw(st.integers(min_value=6, max_value=11))
    dist = draw(st.sampled_from(TRI_DISTS))
    backward = draw(st.booleans())
    prologue = draw(st.booleans())
    epilogue = draw(st.booleans())
    temporary = draw(st.booleans())
    second = draw(st.booleans())
    # the recurrence reads the row the previous step wrote
    first, prev = ("n - 1", "i + 1") if backward else ("2", "i - 1")
    irange = "n - 2, 2, -1" if backward else "3, n - 1"
    lines = ["  DO j = 2, n - 1"]
    if prologue:
        lines.append(f"    D({first},j) = 1.0 / B({first},j)")
    lines.append(f"    DO i = {irange}")
    if temporary:
        lines.append(f"      R = C(i,j) * D({prev},j)")
        lines.append("      D(i,j) = 1.0 / (B(i,j) - 0.25 * R)")
    else:
        lines.append(
            f"      D(i,j) = 1.0 / (B(i,j) - 0.25 * C(i,j) * D({prev},j))"
        )
    if second:
        factor = "R" if temporary else "D(i,j)"
        lines.append(f"      A(i,j) = A(i,j) - A({prev},j) * {factor}")
    lines.append("    END DO")
    if epilogue:
        last = "2" if backward else "n - 1"
        lines.append(f"    A(1,j) = D({last},j) + A({last},j)")
    lines.append("  END DO")
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL A(n,n), B(n,n), C(n,n), D(n,n)\n  REAL R\n"
        "!HPF$ ALIGN (i,j) WITH A(i,j) :: B, C, D\n"
        + dist
        + "".join(line + "\n" for line in lines)
        + "END PROGRAM\n"
    )
    return source, n


@given(serial_column_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_serial_column_nests_are_bit_for_bit_invisible(case, procs):
    """The serial-inner shape outside tomcatv: the whole ``j`` nest is
    taken over with the recurrence intact, invisible against both lower
    tiers in clocks, traffic, and every rank's data, validity and
    versions."""
    source, n = case
    rng = np.random.default_rng(n * 31 + procs)
    # diagonally dominant, as a tridiagonal solve expects: no divisor
    # comes near zero
    inputs = {name: rng.uniform(1, 2, (n, n)) for name in "ACD"}
    inputs["B"] = rng.uniform(4, 5, (n, n))
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    metrics = Metrics()
    slab = simulate(compiled, inputs, tier="slab", metrics=metrics)
    lowered = simulate(compiled, inputs, tier="lowered")
    walker = simulate(compiled, inputs, tier="interpreted")
    for other in (lowered, walker):
        assert_invisible(slab, other)
        assert slab.gather("D").tobytes() == other.gather("D").tobytes()
    assert lowered.slab_instances == 0
    if procs > 1:  # on one rank there is no owner position to slice by
        assert slab.slab_instances > 0
        (j_loop,) = (
            s.stmt_id
            for s in compiled.proc.all_stmts()
            if isinstance(s, LoopStmt) and s.var.name == "J"
        )
        assert metrics.counters[f"slab.takeover[loop=S{j_loop}]"] == 1
