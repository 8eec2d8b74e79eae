"""Paper Figure 2: availability requirements for subscripts.

"Thus, for the example shown in Figure 2, the consumer reference for p
is A(i), and for q it is the dummy replicated reference."
"""

import pytest

from repro.core import (
    CompilerOptions,
    DummyReplicatedRef,
    PrivateNoAlign,
    Replicated,
    classify_use,
    compile_source,
    consumer_candidate,
)
from repro.ir import ArrayElemRef, ScalarRef
from repro.programs import figure2_source


#: the fragment's test size, and the paper's (16 processors)
SIZES = {"small": dict(n=64, procs=4), "paper": dict(n=512, procs=16)}
AT_BOTH_SIZES = pytest.mark.parametrize("compiled", list(SIZES), indirect=True)


@pytest.fixture(scope="module")
def compiled(request):
    size = SIZES[getattr(request, "param", "small")]
    return compile_source(figure2_source(**size), CompilerOptions())


def use_of(compiled, name):
    """The use of scalar `name` inside the A(i) = H(i,p) + G(q,i) stmt."""
    for stmt in compiled.proc.assignments():
        if isinstance(stmt.lhs, ArrayElemRef) and stmt.lhs.symbol.name == "A":
            for ref in stmt.rhs.refs():
                if isinstance(ref, ScalarRef) and ref.symbol.name == name:
                    return ref, stmt
    raise AssertionError(f"no use of {name}")


class TestUseClassification:
    def test_p_is_rhs_subscript(self, compiled):
        use, stmt = use_of(compiled, "P")
        ctx = classify_use(use, stmt)
        assert ctx.role == "rhs-subscript"
        assert ctx.enclosing_ref.symbol.name == "H"

    def test_q_is_rhs_subscript(self, compiled):
        use, stmt = use_of(compiled, "Q")
        ctx = classify_use(use, stmt)
        assert ctx.role == "rhs-subscript"
        assert ctx.enclosing_ref.symbol.name == "G"


class TestConsumerIdentification:
    @AT_BOTH_SIZES
    def test_consumer_of_p_is_lhs(self, compiled):
        """H(i,p) needs no communication (row i is local to the owner of
        A(i)), so only the executing processor needs p."""
        use, stmt = use_of(compiled, "P")
        ctx = classify_use(use, stmt)
        candidate = consumer_candidate(ctx, compiled.scalar_pass)
        assert isinstance(candidate, ArrayElemRef)
        assert candidate.symbol.name == "A"

    @AT_BOTH_SIZES
    def test_consumer_of_q_is_dummy_replicated(self, compiled):
        """G(q,i) needs communication, so its subscript q must be
        available on all processors."""
        use, stmt = use_of(compiled, "Q")
        ctx = classify_use(use, stmt)
        candidate = consumer_candidate(ctx, compiled.scalar_pass)
        assert isinstance(candidate, DummyReplicatedRef)


class TestResultingMappings:
    def test_p_not_replicated_by_force(self, compiled):
        """p's rhs (B(i)) is replicated data, so p ends up privatized
        without alignment — each executor computes it locally."""
        stmts = [
            s
            for s in compiled.proc.assignments()
            if isinstance(s.lhs, ScalarRef) and s.lhs.symbol.name == "P"
        ]
        mapping = compiled.scalar_mapping_of(stmts[0].stmt_id)
        assert isinstance(mapping, PrivateNoAlign)

    @AT_BOTH_SIZES
    def test_q_stays_replicated(self, compiled):
        stmts = [
            s
            for s in compiled.proc.assignments()
            if isinstance(s.lhs, ScalarRef) and s.lhs.symbol.name == "Q"
        ]
        mapping = compiled.scalar_mapping_of(stmts[0].stmt_id)
        assert isinstance(mapping, Replicated)

    @AT_BOTH_SIZES
    def test_h_row_access_needs_no_comm(self, compiled):
        assert not [e for e in compiled.comm.events if e.ref.symbol.name == "H"]

    @AT_BOTH_SIZES
    def test_g_access_needs_comm(self, compiled):
        assert [e for e in compiled.comm.events if e.ref.symbol.name == "G"]

    def test_semantics_preserved(self):
        """Simulated execution matches sequential execution."""
        import numpy as np

        from repro.codegen import run_sequential
        from repro.ir import parse_and_build
        from repro.machine import simulate

        src = figure2_source(n=8, procs=4)
        rng = np.random.default_rng(3)
        inputs = {
            "H": rng.uniform(1, 2, (8, 8)),
            "G": rng.uniform(1, 2, (8, 8)),
            "B": rng.uniform(1, 8, 8),
            "C": rng.uniform(1, 8, 8),
        }
        seq = run_sequential(parse_and_build(src), inputs)
        sim = simulate(compile_source(src, CompilerOptions()), inputs)
        assert np.allclose(sim.gather("A"), seq.get_array("A"))
        assert sim.stats.unexpected_fetches == 0
