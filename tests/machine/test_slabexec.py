"""Unit tests for the tier-3 slab engine (`repro.machine.slabexec`).

Covers the static classifier (eligibility decisions on the paper
benchmarks), report plumbing through the pass manager, and runtime
behaviour: coverage, fallback, ghost-column fetch replay.
"""

import dataclasses
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from repro.codegen.seq import seeded_inputs
from repro.core import CompilerOptions, compile_source
from repro.ir.stmt import LoopStmt
from repro.machine import simulate
from repro.machine.batchexec import VectorMachine
from repro.obs import Metrics
from repro.programs import (
    appsp_source,
    dgefa_source,
    tomcatv_inputs,
    tomcatv_source,
)


def _compile_tomcatv(n=12, procs=4):
    return compile_source(
        tomcatv_source(n=n, niter=1, procs=procs),
        CompilerOptions(num_procs=procs),
    )


class TestClassifier:
    def test_tomcatv_eligibility(self):
        report = _compile_tomcatv().slabs
        assert report is not None
        verdicts = Counter(report.inner.values())
        # residual/new-coordinate/SOR sweeps vectorize; the two
        # tridiagonal elimination loops carry a recurrence
        assert verdicts["ok"] == 3
        carried = [r for r in report.inner.values() if r != "ok"]
        assert len(carried) == 2
        assert all("loop-carried" in r for r in carried)
        # both J sweeps over whole columns take the column plan
        assert list(report.column.values()) == ["ok", "ok"]

    def test_dgefa_eligibility(self):
        compiled = compile_source(
            dgefa_source(n=12, procs=4), CompilerOptions(num_procs=4)
        )
        report = compiled.slabs
        reasons = set(report.inner.values()) | set(report.column.values())
        assert "body contains IfStmt" in reasons  # pivot search
        assert any("executor position varies" in r for r in reasons)
        assert "ok" in report.inner.values()  # elimination updates
        # the update sweep is one nest: the pivot column it reads is
        # fetched inside the takeover, not a reason to decline
        assert list(report.triangular.values()).count("ok") == 1

    def test_report_is_pickle_safe(self):
        report = _compile_tomcatv().slabs
        clone = pickle.loads(pickle.dumps(report))
        assert clone.inner == report.inner
        assert clone.column == report.column
        assert clone.ir_epoch == report.ir_epoch


class TestRuntime:
    def test_tomcatv_coverage_and_parity(self):
        compiled = _compile_tomcatv()
        inputs = tomcatv_inputs(12)
        slab = simulate(compiled, inputs, tier="slab")
        walker = simulate(compiled, inputs, tier="interpreted")
        assert slab.slab_instances > 0
        assert slab.slab_coverage > 0.9
        assert slab.clocks.snapshot() == walker.clocks.snapshot()
        assert slab.stats.as_dict() == walker.stats.as_dict()
        for name in ("X", "Y"):
            assert (
                slab.gather(name).tobytes() == walker.gather(name).tobytes()
            )

    def test_lowered_tier_executes_nothing_in_tier3(self):
        compiled = _compile_tomcatv()
        sim = simulate(
            compiled, tomcatv_inputs(12), tier="lowered"
        )
        assert sim.slab_instances == 0

    def test_missing_report_is_rebuilt_at_runtime(self):
        compiled = _compile_tomcatv()
        compiled.slabs = None  # e.g. compiled artifact from an old cache
        sim = simulate(
            compiled, tomcatv_inputs(12), tier="slab"
        )
        assert sim.slab_instances > 0

    def test_ghost_column_fetches_replay_inside_slab(self):
        """A (*, BLOCK) stencil reads the neighbour rank's boundary
        column; the slab engine must replay those demand fetches with
        tier-2's exact coalescing, charging, and delivery."""
        n = 10
        source = (
            f"PROGRAM G\n  PARAMETER (n = {n})\n"
            "  REAL A(n,n), B(n,n)\n"
            "!HPF$ ALIGN (i,j) WITH A(i,j) :: B\n"
            "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n"
            "  DO j = 2, n - 1\n    DO i = 2, n - 1\n"
            "      A(i,j) = B(i, j - 1) + B(i, j + 1)\n"
            "    END DO\n  END DO\nEND PROGRAM\n"
        )
        rng = np.random.default_rng(3)
        inputs = {nm: rng.uniform(1, 2, (n, n)) for nm in "AB"}
        compiled = compile_source(source, CompilerOptions(num_procs=4))
        slab = simulate(compiled, inputs, tier="slab")
        walker = simulate(compiled, inputs, tier="interpreted")
        assert slab.slab_instances > 0
        assert slab.stats.messages > 0  # ghost columns really moved
        assert slab.clocks.snapshot() == walker.clocks.snapshot()
        assert slab.stats.as_dict() == walker.stats.as_dict()
        assert slab.gather("A").tobytes() == walker.gather("A").tobytes()


def _loop_ordinals(compiled):
    """stmt_id -> pre-order loop ordinal (stable across compiles, unlike
    the process-global statement ids)."""
    loops = [s for s in compiled.proc.all_stmts() if isinstance(s, LoopStmt)]
    return {loop.stmt_id: k for k, loop in enumerate(loops)}


def _slab_counters(metrics, compiled, kind):
    """``slab.<kind>[loop=S..]`` counters keyed by loop ordinal."""
    ordinals = _loop_ordinals(compiled)
    prefix = f"slab.{kind}[loop=S"
    return {
        f"L{ordinals[int(key[len(prefix):-1])]:02d}": int(count)
        for key, count in metrics.counters.items()
        if key.startswith(prefix)
    }


def _state(sim):
    """Everything a tier must agree on: clocks, traffic, and every
    rank's data, validity and version counters."""
    out = [sim.clocks.snapshot(), sim.stats.as_dict()]
    for memory in sim.memories:
        for name in sorted(sym.name for sym in sim.proc.symbols.arrays()):
            out.append((
                memory.arrays[name].tobytes(),
                memory.valid[name].tobytes(),
                memory.versions[name],
            ))
        out.append((dict(memory.scalars), dict(memory.scalar_valid)))
    return out


#: kernel -> (source, verdicts by loop ordinal and table, takeovers and
#: replayed fetch elements by loop ordinal under tier="slab")
GOLDEN = {
    "dgefa": (
        dgefa_source(n=12, procs=4),
        {
            "L00.column": "body contains IfStmt",
            "L00.triangular": "body contains IfStmt",
            "L01.inner": "body contains IfStmt",
            "L02.inner": "S#: executor position varies with J",
            "L03.inner": "ok",
            "L04.triangular": "ok",
            "L05.inner": "ok",
        },
        {"L03": 11, "L04": 11},
        {"L04": 194},
    ),
    "tomcatv": (
        tomcatv_source(n=12, niter=2, procs=4),
        {
            "L01.triangular": "ok",
            "L02.inner": "ok",
            "L03.triangular": "S#: reduction update in body",
            "L04.inner": "ok",
            "L05.column": "ok",
            "L05.triangular": "array written outside the inner loop",
            "L06.inner": "loop-carried dependence on D",
            "L07.column": "ok",
            "L07.triangular": "array written outside the inner loop",
            "L08.inner": "loop-carried dependence on RX",
            "L09.triangular": "ok",
            "L10.inner": "ok",
        },
        {"L01": 2, "L04": 20, "L05": 2, "L07": 2, "L09": 2},
        {"L01": 264},
    ),
    "appsp": (
        appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
        {
            "L02.triangular": "grid is not one-dimensional",
            "L03.inner": "ok",
            "L04.triangular": "grid is not one-dimensional",
            "L05.inner": "ok",
            "L06.column": "grid is not one-dimensional",
            "L06.triangular": "grid is not one-dimensional",
            "L07.triangular": "grid is not one-dimensional",
            "L08.inner": "ok",
        },
        {"L03": 16, "L05": 12, "L08": 12},
        {"L05": 32, "L08": 16},
    ),
}


class TestGoldenVerdicts:
    """The three paper kernels' classifier verdicts and the takeovers a
    slab run commits, pinned: a classifier change that silently routes
    a nest to another plan (or to tier 2) fails here, not in a timing."""

    @pytest.mark.parametrize("kernel", sorted(GOLDEN))
    def test_verdicts_and_takeovers(self, kernel):
        source, verdicts, takeovers, replayed = GOLDEN[kernel]
        compiled = compile_source(source, CompilerOptions(num_procs=4))
        got = {}
        for sid, k in _loop_ordinals(compiled).items():
            for table in ("inner", "column", "triangular"):
                verdict = getattr(compiled.slabs, table).get(sid)
                if verdict is not None:
                    got[f"L{k:02d}.{table}"] = re.sub(r"S\d+", "S#", verdict)
        assert got == verdicts
        metrics = Metrics()
        simulate(
            compiled, seeded_inputs(compiled.proc, 0), tier="slab",
            metrics=metrics,
        )
        assert _slab_counters(metrics, compiled, "takeover") == takeovers
        assert _slab_counters(metrics, compiled, "fetch_replay") == replayed
        assert _slab_counters(metrics, compiled, "fallback") == {}

    def test_dgefa_update_nest_is_taken_once_per_pivot(self):
        """n - 1 takeovers of the ``j`` nest, none of its ``i`` loop."""
        n = 12
        takeovers = GOLDEN["dgefa"][2]
        assert takeovers["L04"] == n - 1
        assert "L05" not in takeovers


SOURCE_BETWEEN = """PROGRAM B
  PARAMETER (n = 8)
  REAL A(n,n), P(n,n)
!HPF$ ALIGN (i,j) WITH A(i,j) :: P
!HPF$ DISTRIBUTE (*, CYCLIC) :: A
  DO j = 4, 6
    DO i = 1, n
      A(i,j) = A(i,j) + 0.5 * P(i,5)
    END DO
  END DO
END PROGRAM
"""


class TestFetchReplay:
    """The exact multi-rank replay of demand fetches inside a nest
    takeover (``_FetchLog``)."""

    def _run(self, source, procs, **kwargs):
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        inputs = seeded_inputs(compiled.proc, 1)
        metrics = Metrics()
        slab = simulate(
            compiled, inputs, tier="slab", metrics=metrics, **kwargs
        )
        return compiled, inputs, slab, metrics

    def test_source_computes_between_two_fetchers(self):
        """Columns 4, 5, 6 run on ranks 0, 1, 2 and all read column 5
        of P, which rank 1 owns: rank 0 fetches it, then rank 1
        computes its own column, then rank 2 fetches — so rank 1's
        pending compute must be folded before rank 2's first message,
        and not before rank 0's."""
        compiled, inputs, slab, metrics = self._run(SOURCE_BETWEEN, 3)
        assert _slab_counters(metrics, compiled, "takeover") == {"L00": 1}
        assert _slab_counters(metrics, compiled, "fetch_replay") == {"L00": 16}
        assert slab.stats.messages == 2
        for tier in ("lowered", "interpreted"):
            other = simulate(compiled, inputs, tier=tier)
            assert _state(slab) == _state(other)
        # the three ranks' clocks really are coupled through rank 1
        times = slab.clocks.snapshot()["time"]
        assert times[2] > times[0] > 0.0

    def test_lane_varying_fetch_key_bails_without_a_trace(self, monkeypatch):
        """A transfer placed inside the taken nest keys its messages on
        the lane variables; the schedule declines — for the ``j`` nest
        and then for its ``i`` loop — before anything is mutated, and
        tier 2 replays the nest exactly."""
        from repro.machine import slabexec

        monkeypatch.setattr(
            slabexec, "hoisted_loop_vars", lambda event, stmt: ("J", "I")
        )
        compiled, inputs, slab, metrics = self._run(SOURCE_BETWEEN, 3)
        assert metrics.counters["slab.bail[fetch key varies per lane]"] >= 1
        # only rank 1's own column — no fetch, no key — is still taken
        assert _slab_counters(metrics, compiled, "takeover") == {"L01": 1}
        assert _slab_counters(metrics, compiled, "fetch_replay") == {}
        walker = simulate(compiled, inputs, tier="interpreted")
        assert _state(slab) == _state(walker)

    def test_dgefa_lanes_match_scalar_runs(self):
        """One DGEFA simulation over five machine lanes charges every
        lane exactly like its own scalar run: the replay goes through
        the ``clocks.*`` interface, so lane clocks get it too."""
        n = 20
        compiled = compile_source(
            dgefa_source(n=n, procs=4), CompilerOptions(num_procs=4)
        )
        inputs = seeded_inputs(compiled.proc, 0)
        base = compiled.options.machine
        models = [
            dataclasses.replace(
                base,
                alpha=base.alpha * a,
                beta=base.beta * b,
                flop_time=base.flop_time * f,
            )
            for a, b, f in (
                (1, 1, 1), (2, 0.5, 1), (0.1, 3, 2), (7, 1, 0.3),
                (0.5, 0.5, 0.5),
            )
        ]
        metrics = Metrics()
        lanes = simulate(
            compiled, inputs, machine=VectorMachine(models), tier="slab",
            metrics=metrics,
        )
        assert _slab_counters(metrics, compiled, "takeover")["L04"] == n - 1
        for lane, model in enumerate(models):
            scalar = simulate(compiled, inputs, machine=model, tier="slab")
            lowered = simulate(compiled, inputs, machine=model, tier="lowered")
            assert scalar.clocks.snapshot() == lowered.clocks.snapshot()
            assert lanes.clocks.lane_snapshot(lane) == scalar.clocks.snapshot()
            assert lanes.stats.as_dict() == scalar.stats.as_dict()
