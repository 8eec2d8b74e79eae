"""Paper Figure 7: privatized execution of control flow statements.

"In the example shown in Figure 7, both of the if statements transfer
control only to a statement inside the i-loop. Hence the execution of
those statements can be privatized. ... Therefore, no communication is
needed for the predicate of those if statements, as B(i) is owned by
the same processor as A(i)."
"""

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.core import CompilerOptions, compile_source
from repro.ir import IfStmt, parse_and_build
from repro.machine import simulate
from repro.programs import figure7_source


#: the fragment's test size, and the paper's (16 processors)
SIZES = {"small": dict(n=64, procs=4), "paper": dict(n=512, procs=16)}
AT_BOTH_SIZES = pytest.mark.parametrize("compiled", list(SIZES), indirect=True)


@pytest.fixture(scope="module")
def compiled(request):
    size = SIZES[getattr(request, "param", "small")]
    return compile_source(figure7_source(**size), CompilerOptions())


def if_decisions(compiled):
    return [
        compiled.cf_decisions[s.stmt_id]
        for s in compiled.proc.all_stmts()
        if isinstance(s, IfStmt)
    ]


class TestPrivatizedExecution:
    @AT_BOTH_SIZES
    def test_both_ifs_privatized(self, compiled):
        decisions = if_decisions(compiled)
        assert len(decisions) == 2
        assert all(d.privatized for d in decisions)

    def test_goto_inside_loop_allows_privatization(self, compiled):
        """The GO TO 100 targets the labelled CONTINUE inside the loop
        body, so it does not escape the i loop."""
        inner = [
            d
            for d in if_decisions(compiled)
            if any("GO TO" in str(s) for s in d.stmt.walk())
        ]
        assert inner and inner[0].privatized

    def test_no_predicate_communication(self, compiled):
        """B(i) is aligned with A(i): the owners evaluating the
        dependents already hold the predicate data."""
        assert not [e for e in compiled.comm.events if e.ref.symbol.name == "B"]

    @AT_BOTH_SIZES
    def test_no_communication_at_all(self, compiled):
        assert not compiled.comm.events

    def test_dependent_refs_recorded(self, compiled):
        outer = if_decisions(compiled)[0]
        names = {r.symbol.name for r in outer.dependent_refs}
        assert "A" in names


class TestEscapingControlFlow:
    def test_goto_out_of_loop_blocks_privatization(self):
        src = (
            "PROGRAM T\n  PARAMETER (n = 16)\n  REAL A(n), B(n)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 1, n\n"
            "    IF (B(i) < 0.0) GO TO 100\n"
            "    A(i) = B(i)\n"
            "  END DO\n"
            "100 CONTINUE\nEND PROGRAM\n"
        )
        compiled = compile_source(src, CompilerOptions(num_procs=4))
        decisions = [
            compiled.cf_decisions[s.stmt_id]
            for s in compiled.proc.all_stmts()
            if isinstance(s, IfStmt)
        ]
        assert not decisions[0].privatized

    def test_stop_blocks_privatization(self):
        src = (
            "PROGRAM T\n  PARAMETER (n = 16)\n  REAL A(n), B(n)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 1, n\n"
            "    IF (B(i) < 0.0) STOP\n"
            "    A(i) = B(i)\n"
            "  END DO\nEND PROGRAM\n"
        )
        compiled = compile_source(src, CompilerOptions(num_procs=4))
        decisions = [
            compiled.cf_decisions[s.stmt_id]
            for s in compiled.proc.all_stmts()
            if isinstance(s, IfStmt)
        ]
        assert not decisions[0].privatized

    def test_option_disables_privatization(self):
        compiled = compile_source(
            figure7_source(n=64, procs=4),
            CompilerOptions(privatize_control_flow=False),
        )
        assert not any(d.privatized for d in if_decisions(compiled))

    def test_unprivatized_predicate_broadcast(self):
        compiled = compile_source(
            figure7_source(n=64, procs=4),
            CompilerOptions(privatize_control_flow=False),
        )
        b_events = [e for e in compiled.comm.events if e.ref.symbol.name == "B"]
        assert b_events  # predicate must now reach all processors


class TestSemantics:
    @pytest.mark.parametrize("privatize", [True, False])
    def test_simulation_matches_sequential(self, privatize):
        src = figure7_source(n=10, procs=4)
        rng = np.random.default_rng(7)
        values = rng.uniform(-1.0, 1.0, 10)
        values[3] = 0.0  # exercise the ELSE branch
        inputs = {
            "A": rng.uniform(1.0, 2.0, 10),
            "B": values,
            "C": rng.uniform(1.0, 2.0, 10),
        }
        seq = run_sequential(parse_and_build(src), inputs)
        sim = simulate(
            compile_source(
                src, CompilerOptions(privatize_control_flow=privatize)
            ),
            inputs,
        )
        assert np.allclose(sim.gather("A"), seq.get_array("A"))
        assert np.allclose(sim.gather("C"), seq.get_array("C"))

    def test_goto_skips_square_when_negative(self):
        """Semantic check of the GOTO path: when B(i) < 0, C(i) keeps
        its original value (the squaring is skipped)."""
        src = figure7_source(n=6, procs=2)
        b = np.array([1.0, -2.0, 3.0, -4.0, 5.0, 0.0])
        c = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        inputs = {"A": np.ones(6), "B": b, "C": c.copy()}
        sim = simulate(compile_source(src, CompilerOptions()), inputs)
        out = sim.gather("C")
        assert out[1] == 3.0 and out[3] == 5.0  # skipped
        assert out[0] == 4.0 and out[2] == 16.0  # squared
