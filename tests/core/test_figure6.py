"""Paper Figure 6: partial privatization.

"The array c is privatizable with respect to the k-loop, but not with
respect to the j-loop. Correspondingly, the compiler will fail in its
attempt to privatize the array in both grid dimensions. ... the only
way to exploit parallelism in both the k and the j-loops is to
partition the second dimension of c across the first grid dimension,
and to privatize it along the second grid dimension."
"""

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.core import CompilerOptions, compile_source
from repro.ir import parse_and_build
from repro.machine import simulate
from repro.programs import figure6_source


#: the fragment's test size, and a paper-scale one (a 4 x 4 grid)
SIZES = {"small": dict(n=12, p0=2, p1=2), "paper": dict(n=32, p0=4, p1=4)}
AT_BOTH_SIZES = pytest.mark.parametrize("compiled", list(SIZES), indirect=True)


@pytest.fixture(scope="module")
def compiled(request):
    size = SIZES[getattr(request, "param", "small")]
    return compile_source(figure6_source(**size), CompilerOptions())


class TestPartialPrivatization:
    @AT_BOTH_SIZES
    def test_partial_privatization_applied(self, compiled):
        privs = compiled.array_result.privatizations
        assert len(privs) == 1
        priv = privs[0]
        assert priv.array.name == "C"
        assert priv.is_partial

    @AT_BOTH_SIZES
    def test_privatized_along_second_grid_dim(self, compiled):
        priv = compiled.array_result.privatizations[0]
        assert priv.privatized_grid_dims == (1,)

    @AT_BOTH_SIZES
    def test_partitioned_j_dimension(self, compiled):
        priv = compiled.array_result.privatizations[0]
        # C's dim 1 (the j index) is partitioned onto grid dim 0.
        assert priv.partitioned_dims == {1: 0}

    def test_target_is_rsd(self, compiled):
        priv = compiled.array_result.privatizations[0]
        assert priv.target.symbol.name == "RSD"

    def test_effective_mapping_roles(self, compiled):
        mapping = compiled.mappings["C"]
        kinds = [r.kind for r in mapping.roles]
        assert kinds == ["dist", "priv"]

    def test_restricted_align_level(self, compiled):
        """With only the privatized dims considered, AlignLevel drops to
        the k loop (level 1) — the paper's modified rule."""
        priv = compiled.array_result.privatizations[0]
        assert priv.align_level <= priv.loop.level

    def test_c_j_shift_communication(self, compiled):
        """C(i, j-1, 1) is one j-plane away: a shift on grid dim 0."""
        events = [e for e in compiled.comm.events if e.ref.symbol.name == "C"]
        assert events
        assert all(e.pattern.kind == "shift" for e in events)


class TestFullPrivatizationFails:
    @pytest.mark.parametrize("size", list(SIZES))
    def test_failure_without_partial(self, size):
        compiled = compile_source(
            figure6_source(**SIZES[size]),
            CompilerOptions(partial_privatization=False),
        )
        assert not compiled.array_result.privatizations
        assert compiled.array_result.failures
        name, loop, reason = compiled.array_result.failures[0]
        assert name == "C"
        assert "AlignLevel" in reason

    def test_replication_fallback_broadcasts(self):
        compiled = compile_source(
            figure6_source(n=12, p0=2, p1=2),
            CompilerOptions(partial_privatization=False),
        )
        # C stays replicated: its producers must be broadcast.
        assert compiled.mappings["C"].is_replicated
        broadcasts = compiled.comm.broadcast_events()
        assert broadcasts


class Test1DFullPrivatization:
    def test_full_privatization_under_1d(self):
        src = figure6_source(n=12, p0=4, p1=1)
        # On a (4,1) grid the j dimension spans one proc; still partial
        # machinery runs, but privatization succeeds.
        compiled = compile_source(src, CompilerOptions())
        assert compiled.array_result.privatizations


class TestSemantics:
    @pytest.mark.parametrize(
        "opts",
        [
            CompilerOptions(),
            CompilerOptions(partial_privatization=False),
            CompilerOptions(privatize_arrays=False),
        ],
        ids=["partial", "no-partial", "no-priv"],
    )
    def test_simulation_matches_sequential(self, opts):
        src = figure6_source(n=6, p0=2, p1=2)
        rng = np.random.default_rng(6)
        inputs = {"RSD": rng.uniform(0.5, 1.5, (5, 6, 6, 6))}
        seq = run_sequential(parse_and_build(src), inputs)
        sim = simulate(compile_source(src, opts), inputs)
        assert np.allclose(sim.gather("RSD"), seq.get_array("RSD"))
        assert sim.stats.unexpected_fetches == 0
