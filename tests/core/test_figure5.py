"""Paper Figure 5: mapping of scalars involved in reductions.

"Hence, s is replicated in the second grid dimension and is aligned
with the ith row of A in the first dimension. As a result of this
alignment, the reduction computation can proceed without the need to
broadcast the ith row of A to other processors along the first grid
dimension."
"""

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.core import (
    CompilerOptions,
    FullyReplicatedReduction,
    ReductionMapping,
    compile_source,
)
from repro.ir import ScalarRef, parse_and_build
from repro.machine import simulate
from repro.programs import figure5_source


#: the fragment's test size, and a paper-scale one (a 4 x 4 grid)
SIZES = {"small": dict(n=64, p0=2, p1=2), "paper": dict(n=512, p0=4, p1=4)}
AT_BOTH_SIZES = pytest.mark.parametrize("compiled", list(SIZES), indirect=True)


@pytest.fixture(scope="module")
def compiled(request):
    size = SIZES[getattr(request, "param", "small")]
    return compile_source(figure5_source(**size), CompilerOptions())


def s_mapping(compiled, k):
    stmts = [
        s
        for s in compiled.proc.assignments()
        if isinstance(s.lhs, ScalarRef) and s.lhs.symbol.name == "S"
    ]
    return compiled.scalar_mapping_of(stmts[k].stmt_id)


class TestReductionMapping:
    @AT_BOTH_SIZES
    def test_update_gets_reduction_mapping(self, compiled):
        mapping = s_mapping(compiled, 1)
        assert isinstance(mapping, ReductionMapping)

    @AT_BOTH_SIZES
    def test_replicated_along_second_grid_dim(self, compiled):
        mapping = s_mapping(compiled, 1)
        assert mapping.replicated_grid_dims == (1,)

    def test_aligned_with_row_of_A(self, compiled):
        mapping = s_mapping(compiled, 1)
        assert mapping.target.symbol.name == "A"

    def test_init_adopts_same_mapping(self, compiled):
        """s = 0.0 must receive the identical mapping (consistency
        across all reaching definitions of each use)."""
        assert s_mapping(compiled, 0) == s_mapping(compiled, 1)

    @AT_BOTH_SIZES
    def test_no_row_broadcast(self, compiled):
        """The whole point: A(i,j) is read locally by its owner."""
        assert not [e for e in compiled.comm.events if e.ref.symbol.name == "A"]

    @AT_BOTH_SIZES
    def test_combine_event_emitted(self, compiled):
        assert len(compiled.comm.reduces) == 1
        combine = compiled.comm.reduces[0]
        assert combine.grid_dims == (1,)
        assert combine.op == "+"

    @AT_BOTH_SIZES
    def test_combine_once_per_i_iteration(self, compiled):
        combine = compiled.comm.reduces[0]
        assert combine.loop_level == 2  # the j loop


class TestDisabledAlignment:
    def test_fallback_is_fully_replicated(self):
        compiled = compile_source(
            figure5_source(n=64, p0=2, p1=2),
            CompilerOptions(align_reductions=False),
        )
        mapping = s_mapping(compiled, 1)
        assert isinstance(mapping, FullyReplicatedReduction)

    def test_replication_broadcasts_rows(self):
        compiled = compile_source(
            figure5_source(n=64, p0=2, p1=2),
            CompilerOptions(align_reductions=False),
        )
        assert [e for e in compiled.comm.events if e.ref.symbol.name == "A"]


class TestSemantics:
    @pytest.mark.parametrize("align", [True, False])
    def test_simulation_matches_sequential(self, align):
        src = figure5_source(n=8, p0=2, p1=2)
        rng = np.random.default_rng(5)
        inputs = {"A": rng.uniform(0.0, 1.0, (8, 8))}
        seq = run_sequential(parse_and_build(src), inputs)
        sim = simulate(
            compile_source(src, CompilerOptions(align_reductions=align)), inputs
        )
        assert np.allclose(sim.gather("B"), seq.get_array("B"))
        assert sim.stats.unexpected_fetches == 0

    def test_row_sums_correct(self):
        src = figure5_source(n=8, p0=2, p1=2)
        inputs = {"A": np.arange(64, dtype=float).reshape(8, 8)}
        sim = simulate(compile_source(src, CompilerOptions()), inputs)
        assert np.allclose(sim.gather("B"), inputs["A"].sum(axis=1))
