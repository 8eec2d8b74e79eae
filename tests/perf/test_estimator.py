"""Analytic performance estimator tests."""

import pytest

from repro.core import CompilerOptions, compile_source
from repro.perf import PerfEstimator


def compile_body(body, n=64, procs=4, decls="", **opts):
    src = (
        f"PROGRAM T\n  PARAMETER (n = {n})\n"
        "  REAL A(n), B(n), E(n), W(n, n)\n" + decls +
        "!HPF$ ALIGN B(i) WITH A(i)\n"
        "!HPF$ ALIGN E(i) WITH A(*)\n"
        "!HPF$ ALIGN W(i, j) WITH A(j)\n"
        "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
        + body + "\nEND PROGRAM\n"
    )
    return compile_source(src, CompilerOptions(num_procs=procs, **opts))


class TestTripCounts:
    def test_constant_bounds(self):
        compiled = compile_body("  DO i = 1, n\n    A(i) = 0.0\n  END DO")
        est = PerfEstimator(compiled)
        assert est.trip_count(next(compiled.proc.loops())) == 64

    def test_step(self):
        compiled = compile_body("  DO i = 1, n, 2\n    A(i) = 0.0\n  END DO")
        est = PerfEstimator(compiled)
        assert est.trip_count(next(compiled.proc.loops())) == 32

    def test_triangular_average(self):
        compiled = compile_body(
            "  DO i = 1, n\n    DO j = i, n\n      W(i, j) = 0.0\n    END DO\n"
            "  END DO"
        )
        est = PerfEstimator(compiled)
        loops = list(compiled.proc.loops())
        est.trip_count(loops[0])
        inner_trip = est.trip_count(loops[1])
        # average over i midpoint: about n/2
        assert 0.4 * 64 <= inner_trip <= 0.6 * 64


class TestComputeScaling:
    def test_parallel_speedup(self):
        body = "  DO i = 1, n\n    A(i) = B(i) * 2.0 + 1.0\n  END DO"
        t4 = PerfEstimator(compile_body(body, procs=4)).estimate().compute_time
        t8 = PerfEstimator(compile_body(body, procs=8)).estimate().compute_time
        assert t8 < t4

    def test_replicated_execution_no_speedup(self):
        body = "  DO i = 1, n\n    E(i) = B(i) * 2.0\n  END DO"
        t4 = PerfEstimator(compile_body(body, procs=4)).estimate().compute_time
        t8 = PerfEstimator(compile_body(body, procs=8)).estimate().compute_time
        assert t8 == pytest.approx(t4)

    def test_serialized_dimension(self):
        """A(1) writes land on one processor: no parallelism."""
        body = "  DO i = 1, n\n    A(1) = B(i)\n  END DO"
        t4 = PerfEstimator(compile_body(body, procs=4)).estimate().compute_time
        t8 = PerfEstimator(compile_body(body, procs=8)).estimate().compute_time
        assert t8 == pytest.approx(t4)

    def test_serial_estimate_equals_p1(self):
        body = "  DO i = 1, n\n    A(i) = B(i) * 2.0\n  END DO"
        est = PerfEstimator(compile_body(body, procs=1))
        assert est.estimate_serial() == pytest.approx(est.estimate().compute_time)


class TestCommScaling:
    def test_no_comm_when_local(self):
        body = "  DO i = 1, n\n    A(i) = B(i)\n  END DO"
        assert PerfEstimator(compile_body(body)).estimate().comm_time == 0.0

    def test_vectorized_cheaper_than_inner(self):
        body = "  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO"
        vec = PerfEstimator(compile_body(body)).estimate().comm_time
        raw = PerfEstimator(
            compile_body(body, message_vectorization=False)
        ).estimate().comm_time
        assert raw > vec

    def test_inner_loop_comm_scales_with_iterations(self):
        body = (
            "  DO it = 1, 4\n    DO i = 2, n - 1\n"
            "      A(i) = A(i - 1) + A(i + 1)\n    END DO\n  END DO"
        )
        small = PerfEstimator(compile_body(body, n=32)).estimate().comm_time
        large = PerfEstimator(compile_body(body, n=64)).estimate().comm_time
        assert large > 1.5 * small

    def test_shift_boundary_volume(self):
        """A vectorized shift moves only boundary elements, so its cost
        must be far below a broadcast of the same array."""
        shift = compile_body("  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO")
        bcast = compile_body("  DO i = 1, n\n    E(i) = B(i)\n  END DO")
        t_shift = PerfEstimator(shift).estimate().comm_time
        t_bcast = PerfEstimator(bcast).estimate().comm_time
        assert t_bcast > t_shift

    def test_single_proc_no_comm(self):
        body = "  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO"
        est = PerfEstimator(compile_body(body, procs=1)).estimate()
        assert est.comm_time == 0.0


class TestBreakdown:
    def test_stmt_costs_enumerated(self):
        body = "  DO i = 1, n\n    A(i) = B(i) + 1.0\n  END DO"
        est = PerfEstimator(compile_body(body)).estimate()
        assert len(est.stmt_costs) == 1
        cost = est.stmt_costs[0]
        assert cost.instances == 64
        assert cost.parallel_factor == 4.0

    def test_total_is_sum(self):
        body = "  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO"
        est = PerfEstimator(compile_body(body)).estimate()
        assert est.total_time == pytest.approx(est.compute_time + est.comm_time)

    def test_summary_text(self):
        body = "  DO i = 1, n\n    A(i) = B(i)\n  END DO"
        text = PerfEstimator(compile_body(body)).estimate().summary()
        assert "compute" in text and "comm" in text


class TestSpeedupHelper:
    def test_speedup_computation(self):
        body = "  DO i = 1, n\n    A(i) = B(i) * 2.0\n  END DO"
        est = PerfEstimator(compile_body(body, procs=4))
        serial = est.estimate_serial()
        result = est.estimate()
        assert result.speedup(serial) == pytest.approx(serial / result.total_time)

    def test_selected_tomcatv_speedup_exceeds_baselines(self):
        from repro.programs import tomcatv_source

        src = tomcatv_source(n=65, niter=2, procs=8)
        selected = compile_source(src, CompilerOptions(strategy="selected"))
        replication = compile_source(src, CompilerOptions(strategy="replication"))
        serial = PerfEstimator(selected).estimate_serial()
        s_sel = PerfEstimator(selected).estimate().speedup(serial)
        s_rep = PerfEstimator(replication).estimate().speedup(serial)
        assert s_sel > 1.0 > s_rep


class TestPipelinedShiftPricing:
    def test_pipelined_cheaper_for_inner_loop_shifts(self):
        from repro.programs import appsp_source

        src = appsp_source(nx=16, ny=16, nz=16, niter=2, procs=4, distribution="2d")
        compiled = compile_source(src, CompilerOptions())
        default = PerfEstimator(compiled).estimate().comm_time
        pipelined = PerfEstimator(compiled, pipelined_shifts=True).estimate().comm_time
        assert pipelined < default

    def test_pipelined_closes_gap_to_simulator(self):
        import numpy as np

        from repro.machine import simulate
        from repro.programs import appsp_inputs, appsp_source

        src = appsp_source(nx=8, ny=8, nz=8, niter=2, procs=4, distribution="2d")
        compiled = compile_source(src, CompilerOptions())
        est = PerfEstimator(compiled, pipelined_shifts=True).estimate().total_time
        sim = simulate(compiled, appsp_inputs(8, 8, 8)).elapsed
        assert 0.3 < est / sim < 3.0

    def test_vectorized_shifts_unaffected(self):
        body = "  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO"
        compiled = compile_body(body)
        default = PerfEstimator(compiled).estimate().comm_time
        pipelined = PerfEstimator(compiled, pipelined_shifts=True).estimate().comm_time
        assert pipelined == pytest.approx(default)


class TestTriangularExactness:
    """Loop-variable-dependent bounds price with closed-form
    n(n±1)/2 sums, validated against exact interpreter instance
    counts (the walker counts one ``interp_instances`` per executed
    assignment / condition)."""

    def _walker_instances(self, compiled):
        from repro.machine import simulate

        return simulate(compiled, tier="interpreted").interp_instances

    def _estimated_instances(self, compiled):
        from repro.ir.stmt import AssignStmt, IfStmt

        est = PerfEstimator(compiled)
        return sum(
            est._instances(s)
            for s in compiled.proc.all_stmts()
            if isinstance(s, (AssignStmt, IfStmt))
        )

    def test_upper_triangular_mean_is_exact(self):
        compiled = compile_body(
            "  DO i = 1, n\n    DO j = i, n\n      W(i, j) = 0.0\n"
            "    END DO\n  END DO"
        )
        est = PerfEstimator(compiled)
        loops = list(compiled.proc.loops())
        est.trip_count(loops[0])
        # trips are n, n-1, ..., 1: mean exactly (n+1)/2, not floor(...)
        assert est.trip_count(loops[1]) == (64 + 1) / 2

    def test_lower_triangular_matches_interpreter(self):
        compiled = compile_body(
            "  DO i = 1, n\n    DO j = 1, i\n      W(i, j) = 0.0\n"
            "    END DO\n  END DO",
            n=11,
            procs=2,
        )
        # sum_{i=1}^{n} i = n(n+1)/2
        assert self._estimated_instances(compiled) == 11 * 12 / 2
        assert self._estimated_instances(compiled) == (
            self._walker_instances(compiled)
        )

    def test_offset_triangular_matches_interpreter(self):
        compiled = compile_body(
            "  DO i = 1, n - 1\n    DO j = i + 1, n\n"
            "      W(i, j) = 0.0\n    END DO\n  END DO",
            n=12,
            procs=2,
        )
        # sum_{i=1}^{n-1} (n-i) = n(n-1)/2
        assert self._estimated_instances(compiled) == 12 * 11 / 2
        assert self._estimated_instances(compiled) == (
            self._walker_instances(compiled)
        )

    def test_clamped_bounds_matches_interpreter(self):
        # columns past i = 5 have no iterations at all: the clamp at
        # zero must be per-column, not applied to the average
        compiled = compile_body(
            "  DO i = 1, n\n    DO j = i, 5\n      W(i, j) = 0.0\n"
            "    END DO\n  END DO",
            n=9,
            procs=2,
        )
        assert self._estimated_instances(compiled) == 5 * 6 / 2
        assert self._estimated_instances(compiled) == (
            self._walker_instances(compiled)
        )

    def test_correlated_triangular_matches_interpreter(self):
        # DGEFA's update shape: two inner loops both sweeping n-k
        # elements — a product of independent means undercounts;
        # the correlated closed form gives sum (n-k)^2 exactly
        src = (
            "PROGRAM T\n  PARAMETER (n = 10)\n  REAL A(n,n), B(n,n)\n"
            "!HPF$ ALIGN (i,j) WITH A(i,j) :: B\n"
            "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n"
            "  DO k = 1, n - 1\n    DO j = k + 1, n\n"
            "      DO i = k + 1, n\n        A(i,j) = A(i,j) + B(i,j)\n"
            "      END DO\n    END DO\n  END DO\nEND PROGRAM\n"
        )
        compiled = compile_source(src, CompilerOptions(num_procs=2))
        exact = sum((10 - k) ** 2 for k in range(1, 10))
        assert self._estimated_instances(compiled) == exact
        assert self._walker_instances(compiled) == exact

    def test_downward_triangular_matches_interpreter(self):
        compiled = compile_body(
            "  DO i = 1, n\n    DO j = i, 1, -1\n      W(i, j) = 0.0\n"
            "    END DO\n  END DO",
            n=8,
            procs=2,
        )
        assert self._estimated_instances(compiled) == 8 * 9 / 2
        assert self._estimated_instances(compiled) == (
            self._walker_instances(compiled)
        )


class TestNestCost:
    def test_slab_wins_on_large_rectangular_nest(self):
        compiled = compile_body(
            "  DO j = 1, n\n    DO i = 1, n\n      W(i, j) = W(i, j) + 1.0\n"
            "    END DO\n  END DO",
            n=64,
        )
        est = PerfEstimator(compiled)
        loops = list(compiled.proc.loops())
        cost = est.nest_cost(loops[1])
        assert cost.instances == 64 * 64
        assert cost.entries == 64
        assert cost.stmts == 1
        assert cost.slab_wins

    def test_tiny_nest_stays_on_tier2(self):
        compiled = compile_body(
            "  DO j = 1, n\n    DO i = 1, 2\n      W(i, j) = W(i, j) + 1.0\n"
            "    END DO\n  END DO",
            n=64,
        )
        est = PerfEstimator(compiled)
        loops = list(compiled.proc.loops())
        cost = est.nest_cost(loops[1])
        # two lanes per prepare cannot amortize the takeover overhead
        assert not cost.slab_wins

    def test_outer_takeover_beats_per_iteration_inner(self):
        src = (
            "PROGRAM T\n  PARAMETER (n = 24)\n  REAL A(n,n), B(n,n)\n"
            "!HPF$ ALIGN (i,j) WITH A(i,j) :: B\n"
            "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n"
            "  DO j = 2, n - 1\n    DO i = j, n - 1\n"
            "      A(i,j) = B(i,j) + 1.0\n    END DO\n  END DO\n"
            "END PROGRAM\n"
        )
        compiled = compile_source(src, CompilerOptions(num_procs=2))
        est = PerfEstimator(compiled)
        outer, inner = list(compiled.proc.loops())[:2]
        # one prepare for the whole nest vs one per outer iteration
        assert est.nest_cost(outer).tier3_time < (
            est.nest_cost(inner).tier3_time
        )
