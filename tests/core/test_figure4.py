"""Paper Figure 4: AlignLevel computation.

"Therefore, in Figure 4, the AlignLevel of A(i,j,k) is 2, which
corresponds to the j-loop, and the AlignLevel of B(s,j,k) is 3,
corresponding to the k-loop, which is the outermost loop in which
subscript s is invariant."
"""

import pytest

from repro.core import (
    CompilerOptions,
    align_level,
    alignment_valid,
    build_context,
    subscript_align_level,
    var_level,
)
from repro.ir import ArrayElemRef, parse_and_build
from repro.programs import figure4_source


#: the fragment's test size, and a paper-scale one (a 4 x 4 grid)
SIZES = {"small": dict(n=16, p0=2, p1=2), "paper": dict(n=64, p0=4, p1=4)}
AT_BOTH_SIZES = pytest.mark.parametrize("ctx", list(SIZES), indirect=True)


@pytest.fixture(scope="module")
def ctx(request):
    size = SIZES[getattr(request, "param", "small")]
    return build_context(parse_and_build(figure4_source(**size)))


def lhs_ref(ctx, name):
    for stmt in ctx.proc.assignments():
        if isinstance(stmt.lhs, ArrayElemRef) and stmt.lhs.symbol.name == name:
            return stmt.lhs, stmt
    raise AssertionError(name)


class TestVarLevel:
    def test_loop_index_levels(self, ctx):
        ref, stmt = lhs_ref(ctx, "A")
        i_sub, j_sub, k_sub = ref.subscripts
        assert var_level(i_sub, stmt, ctx.proc, ctx.ssa) == 1
        assert var_level(j_sub, stmt, ctx.proc, ctx.ssa) == 2
        assert var_level(k_sub, stmt, ctx.proc, ctx.ssa) == 3

    def test_computed_scalar_level(self, ctx):
        """s is (re)defined in the j loop: VarLevel(s) = 2."""
        ref, stmt = lhs_ref(ctx, "B")
        s_sub = ref.subscripts[0]
        assert var_level(s_sub, stmt, ctx.proc, ctx.ssa) == 2


class TestSubscriptAlignLevel:
    def test_affine_index_sal_equals_varlevel(self, ctx):
        ref, stmt = lhs_ref(ctx, "A")
        assert subscript_align_level(ref, 1, stmt, ctx.proc, ctx.ssa) == 2

    def test_non_affine_scalar_sal_is_varlevel_plus_one(self, ctx):
        """s = i*j is not an affine function of loop indices:
        SubscriptAlignLevel(s) = VarLevel(s) + 1 = 3."""
        ref, stmt = lhs_ref(ctx, "B")
        assert subscript_align_level(ref, 0, stmt, ctx.proc, ctx.ssa) == 3


class TestAlignLevel:
    @AT_BOTH_SIZES
    def test_alignlevel_A_is_2(self, ctx):
        ref, _ = lhs_ref(ctx, "A")
        mapping = ctx.array_mappings["A"]
        assert align_level(ref, ctx.proc, ctx.ssa, mapping) == 2

    @AT_BOTH_SIZES
    def test_alignlevel_B_is_3(self, ctx):
        ref, _ = lhs_ref(ctx, "B")
        mapping = ctx.array_mappings["B"]
        assert align_level(ref, ctx.proc, ctx.ssa, mapping) == 3

    def test_collapsed_dim_ignored(self, ctx):
        """The k subscript sits in a '*' (collapsed) dimension, so it
        contributes nothing — AlignLevel(A) is 2, not 3."""
        ref, _ = lhs_ref(ctx, "A")
        mapping = ctx.array_mappings["A"]
        assert align_level(ref, ctx.proc, ctx.ssa, mapping) < 3

    def test_restricted_alignlevel(self, ctx):
        """Partial privatization's modified rule: restricting B's
        AlignLevel to grid dim 1 (the j dimension) drops it to 2."""
        ref, _ = lhs_ref(ctx, "B")
        mapping = ctx.array_mappings["B"]
        assert align_level(
            ref, ctx.proc, ctx.ssa, mapping, restrict_grid_dims=(1,)
        ) == 2


class TestValidity:
    def test_validity_against_levels(self, ctx):
        ref_a, _ = lhs_ref(ctx, "A")
        ref_b, _ = lhs_ref(ctx, "B")
        map_a = ctx.array_mappings["A"]
        map_b = ctx.array_mappings["B"]
        # a def privatizable at the j level (2) may align with A(i,j,k)
        assert alignment_valid(ref_a, 2, ctx.proc, ctx.ssa, map_a)
        # ... but not with B(s,j,k)
        assert not alignment_valid(ref_b, 2, ctx.proc, ctx.ssa, map_b)
        # at the k level (3) both are valid
        assert alignment_valid(ref_b, 3, ctx.proc, ctx.ssa, map_b)
