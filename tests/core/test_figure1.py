"""Paper Figure 1: the four mapping alternatives for privatized scalars.

"It is necessary to privatize each of the variables m, x, y, and z to
achieve partitioned execution of the loop. ... [x] is aligned with the
consumer reference D(m) ... The preferable alignment for the variable y
is with the producer reference A(i) ... [z] can be privatized without
explicit alignment ... Any scalar variable recognized as an induction
variable, such as m, should be privatized without alignment [after
closed-form substitution m+1 -> i+1]."
"""

import pytest

from repro.core import (
    AlignedTo,
    CompilerOptions,
    PrivateNoAlign,
    Replicated,
    compile_source,
)
from repro.ir import ScalarRef
from repro.programs import figure1_source


#: the fragment's test size, and the paper's (TOMCATV's n, 16 processors)
SIZES = {"small": dict(n=100, procs=4), "paper": dict(n=513, procs=16)}
AT_BOTH_SIZES = pytest.mark.parametrize("compiled", list(SIZES), indirect=True)


@pytest.fixture(scope="module")
def compiled(request):
    size = SIZES[getattr(request, "param", "small")]
    return compile_source(figure1_source(**size), CompilerOptions())


def mapping_of(compiled, name, k=0):
    stmts = [
        s
        for s in compiled.proc.assignments()
        if isinstance(s.lhs, ScalarRef) and s.lhs.symbol.name == name
    ]
    return compiled.scalar_mapping_of(stmts[k].stmt_id), stmts[k]


class TestInductionVariableM:
    def test_closed_form_substituted(self, compiled):
        _, update = mapping_of(compiled, "M", k=1)
        assert str(update.rhs) == "(I + 1)"

    def test_recognized_as_induction(self, compiled):
        assert any(iv.symbol.name == "M" for iv in compiled.ctx.inductions)

    @AT_BOTH_SIZES
    def test_privatized_without_alignment(self, compiled):
        mapping, _ = mapping_of(compiled, "M", k=1)
        assert isinstance(mapping, PrivateNoAlign)

    def test_subscript_use_rewritten(self, compiled):
        # D(m) became D(i + 1)
        d_stmts = [
            s
            for s in compiled.proc.assignments()
            if not isinstance(s.lhs, ScalarRef) and s.lhs.symbol.name == "D"
        ]
        assert str(d_stmts[0].lhs.subscripts[0]) == "(I + 1)"


class TestConsumerAlignmentX:
    @AT_BOTH_SIZES
    def test_x_aligned_with_consumer(self, compiled):
        mapping, _ = mapping_of(compiled, "X")
        assert isinstance(mapping, AlignedTo)
        assert mapping.is_consumer
        assert mapping.target.symbol.name == "D"

    @AT_BOTH_SIZES
    def test_b_c_communication_vectorized(self, compiled):
        """The shifts for B(i), C(i) move outside the i-loop."""
        events = [
            e
            for e in compiled.comm.events
            if e.ref.symbol.name in ("B", "C")
        ]
        assert len(events) == 2
        assert all(e.placement_level == 0 for e in events)
        assert all(e.pattern.kind == "shift" for e in events)


class TestProducerAlignmentY:
    @AT_BOTH_SIZES
    def test_y_aligned_with_producer(self, compiled):
        mapping, _ = mapping_of(compiled, "Y")
        assert isinstance(mapping, AlignedTo)
        assert not mapping.is_consumer
        assert mapping.target.symbol.name in ("A", "B")

    @AT_BOTH_SIZES
    def test_y_transfer_in_inner_loop(self, compiled):
        """y's value travels to the owner of A(i+1) inside the loop, the
        fragment's only inner-loop transfer."""
        events = [
            e
            for e in compiled.comm.events
            if isinstance(e.ref, ScalarRef) and e.ref.symbol.name == "Y"
        ]
        assert len(events) == 1
        assert events[0].is_inner_loop
        assert [e for e in compiled.comm.events if e.is_inner_loop] == events


class TestNoAlignZ:
    @AT_BOTH_SIZES
    def test_z_private_no_align(self, compiled):
        mapping, _ = mapping_of(compiled, "Z")
        assert isinstance(mapping, PrivateNoAlign)

    def test_no_communication_for_z(self, compiled):
        assert not [
            e
            for e in compiled.comm.events
            if isinstance(e.ref, ScalarRef) and e.ref.symbol.name == "Z"
        ]

    def test_replicated_inputs_not_broadcast(self, compiled):
        assert not [
            e for e in compiled.comm.events if e.ref.symbol.name in ("E", "F")
        ]


class TestInitialAssignment:
    def test_m_init_outside_loop_replicated(self, compiled):
        mapping, _ = mapping_of(compiled, "M", k=0)
        assert isinstance(mapping, Replicated)


class TestBaselineStrategies:
    def test_replication_strategy_maps_all_replicated(self):
        compiled = compile_source(
            figure1_source(n=100, procs=4), CompilerOptions(strategy="replication")
        )
        for stmt in compiled.proc.assignments():
            if isinstance(stmt.lhs, ScalarRef):
                assert isinstance(
                    compiled.scalar_mapping_of(stmt.stmt_id), Replicated
                )

    def test_producer_strategy_never_uses_consumer(self):
        compiled = compile_source(
            figure1_source(n=100, procs=4), CompilerOptions(strategy="producer")
        )
        for stmt in compiled.proc.assignments():
            mapping = compiled.scalar_mapping_of(stmt.stmt_id)
            if isinstance(mapping, AlignedTo):
                assert not mapping.is_consumer

    def test_noalign_strategy(self):
        compiled = compile_source(
            figure1_source(n=100, procs=4), CompilerOptions(strategy="noalign")
        )
        kinds = set()
        for stmt in compiled.proc.assignments():
            mapping = compiled.scalar_mapping_of(stmt.stmt_id)
            if mapping is not None:
                kinds.add(type(mapping).__name__)
        assert "AlignedTo" not in kinds
        assert "PrivateNoAlign" in kinds
