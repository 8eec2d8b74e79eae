"""Unit tests for the tier-3 slab engine (`repro.machine.slabexec`).

Covers the static classifier (eligibility decisions on the paper
benchmarks), the report derived from the compiled program, and runtime
behaviour: coverage, fallback, ghost-column fetch replay.
"""

import dataclasses
import pickle
import re
import types
from collections import Counter

import numpy as np
import pytest

from repro.codegen.seq import seeded_inputs
from repro.core import CompilerOptions, compile_source
from repro.ir.stmt import LoopStmt
from repro.machine import SPMDSimulator, simulate
from repro.machine.batchexec import VectorMachine
from repro.obs import Metrics
from repro.programs import (
    appsp_source,
    dgefa_inputs,
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
    def test_tomcatv_nests_are_all_eligible_folds_included(self):
        compiled = _compile_tomcatv()
        report = compiled.slabs
        assert report is not None
        innermost = [
            _reason(report.verdicts[loop.stmt_id])
            for loop in compiled.proc.all_stmts()
            if isinstance(loop, LoopStmt)
            and not any(isinstance(s, LoopStmt) for s in loop.body)
        ]
        # residual/new-coordinate/SOR sweeps vectorize; the two
        # tridiagonal elimination loops carry a recurrence
        assert Counter(innermost)["ok"] == 3
        carried = [r for r in innermost if r != "ok"]
        assert len(carried) == 2
        assert all("loop-carried" in r for r in carried)
        # ... so their J sweeps over whole columns are nests with a
        # serial axis; the stencil, residual (a flattened nest folds
        # its MAX updates) and update nests flatten theirs
        plans = [v for v in report.verdicts.values() if not isinstance(v, str)]
        assert len(plans) == 3 + 5
        assert [plan.serial_var for plan in plans].count("I") == 2

    @pytest.mark.parametrize("update, verdict", [
        # a flattened nest folds its scalar updates ...
        ("S = MAX(S, A(i,j))", "ok"),
        # ... a nest with a serial axis does not, nor does any nest an
        # update of an array element
        ("A(i,j) = A(i-1,j) + B(i,j)\n      S = MAX(S, A(i,j))",
         "S#: reduction update in body"),
        ("B(2,j) = B(2,j) + A(i,j)", "S#: reduction update in body"),
    ])
    def test_reduction_update_in_a_nest(self, update, verdict):
        compiled = compile_source(
            "PROGRAM R\n  PARAMETER (n = 8)\n  REAL A(n,n), B(n,n)\n  REAL S\n"
            "!HPF$ ALIGN (i,j) WITH A(i,j) :: B\n"
            "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n  S = 0.0\n"
            f"  DO j = 1, n\n    DO i = 2, n\n      {update}\n"
            "    END DO\n  END DO\nEND PROGRAM\n",
            CompilerOptions(num_procs=4),
        )
        assert _ordinal_verdicts(compiled)["L00"] == verdict

    def test_dgefa_eligibility(self):
        compiled = compile_source(
            dgefa_source(n=12, procs=4), CompilerOptions(num_procs=4)
        )
        verdicts = _ordinal_verdicts(compiled)
        # the elimination loop: its IF holds the whole pivot step
        assert verdicts["L00"] == "IF branch contains LoopStmt"
        # the pivot search is a masked MAXLOC fold, the row swap runs
        # on the lanes of the columns' owners
        assert (verdicts["L01"], verdicts["L02"]) == ("ok", "ok")
        assert verdicts["L03"] == "ok"  # the scaling of the pivot column
        # the update sweep is one nest: the pivot column it reads is
        # fetched inside the takeover, not a reason to decline
        assert (verdicts["L04"], verdicts["L05"]) == ("ok", "ok")

    def test_report_is_pickle_safe(self):
        report = _compile_tomcatv().slabs
        clone = pickle.loads(pickle.dumps(report))

        def shapes(report):
            return {
                sid: getattr(v, "serial_var", v)
                for sid, v in report.verdicts.items()
            }

        assert shapes(clone) == shapes(report)
        assert list(shapes(report).values()).count("I") == 2
        assert clone.ir_epoch == report.ir_epoch

    def test_one_plan_class_and_one_context(self):
        """The by-construction pin: the nest shapes are domain data of
        one plan evaluated by one context, not classes to keep equal."""
        import inspect

        from repro.codegen.veceval import _Ctx
        from repro.machine import slabexec

        classes = [
            cls
            for _, cls in inspect.getmembers(slabexec, inspect.isclass)
            if cls.__module__ == slabexec.__name__
        ]
        assert [c.__name__ for c in classes if c.__name__.endswith("Plan")] == [
            "NestPlan"
        ]
        assert [c.__name__ for c in classes if issubclass(c, _Ctx)] == [
            "_NestCtx"
        ]
        fields = {f.name for f in dataclasses.fields(slabexec.SlabReport)}
        assert fields == {"ir_epoch", "verdicts"}


class TestRuntime:
    def test_tomcatv_coverage_and_parity(self):
        compiled = _compile_tomcatv()
        inputs = tomcatv_inputs(12)
        slab = simulate(compiled, inputs, tier="slab")
        lowered = simulate(compiled, inputs, tier="lowered")
        assert slab.slab_instances > 0
        assert slab.slab_coverage > 0.9
        assert slab.clocks.snapshot() == lowered.clocks.snapshot()
        assert slab.stats.as_dict() == lowered.stats.as_dict()
        for name in ("X", "Y"):
            assert (
                slab.gather(name).tobytes() == lowered.gather(name).tobytes()
            )

    def test_lowered_tier_executes_nothing_in_tier3(self):
        compiled = _compile_tomcatv()
        sim = simulate(
            compiled, tomcatv_inputs(12), tier="lowered"
        )
        assert sim.slab_instances == 0

    def test_missing_report_is_rebuilt_at_runtime(self):
        # a compiled artifact from the disk cache carries no report
        compiled = pickle.loads(pickle.dumps(_compile_tomcatv()))
        assert "slabexec" not in compiled._derived
        sim = simulate(
            compiled, tomcatv_inputs(12), tier="slab"
        )
        assert sim.slab_instances > 0
        assert sim._fast.slab.report is compiled.slabs

    def test_runs_share_the_compiled_plans(self, monkeypatch):
        """The plans belong to the compiled program: a scalar run and a
        two-lane VectorMachine run prepare the same NestPlan objects,
        and neither builds one."""
        from repro.machine import slabexec
        from repro.model import SP2

        compiled = _compile_tomcatv()
        plans = {
            v for v in compiled.slabs.verdicts.values() if not isinstance(v, str)
        }
        built, prepared = [], {}
        init, prepare = slabexec.NestPlan.__init__, slabexec.NestPlan.prepare

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        def recording_prepare(self, slab, *args):
            prepared.setdefault(slab, set()).add(self)
            return prepare(self, slab, *args)

        monkeypatch.setattr(slabexec.NestPlan, "__init__", counting_init)
        monkeypatch.setattr(slabexec.NestPlan, "prepare", recording_prepare)
        lanes = VectorMachine([SP2, dataclasses.replace(SP2, alpha=2 * SP2.alpha)])
        for machine in (SP2, lanes):
            sim = simulate(
                compiled, tomcatv_inputs(12), machine=machine, tier="slab"
            )
            assert sim.slab_instances > 0
        assert built == []
        scalar, vector = prepared.values()
        assert scalar == vector and len(scalar) == 5 and scalar <= plans

    def test_takeovers_leave_no_cyclic_garbage(self):
        """A takeover's domain, lanes and context die by reference
        count: a cycle among them would hold every entry's arrays until
        the collector runs, and DGEFA enters each nest once per pivot."""
        import gc

        from repro.machine import slabexec

        compiled = compile_source(
            dgefa_source(n=12, procs=4), CompilerOptions(num_procs=4)
        )
        inputs = seeded_inputs(compiled.proc, 0)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            sim = simulate(compiled, inputs, tier="slab")
            assert sim.slab_instances > 0
            del sim
            gc.collect()
            domains = sum(
                type(obj) is slabexec._Domain for obj in gc.garbage
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        # the executor and the simulator reference each other by
        # design and die together — without a shape: the builds the
        # executor kept were released when the run ended; the plans
        # belong to the compiled program and reference neither
        assert domains == 0

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
        lowered = simulate(compiled, inputs, tier="lowered")
        assert slab.slab_instances > 0
        assert slab.stats.messages > 0  # ghost columns really moved
        assert slab.clocks.snapshot() == lowered.clocks.snapshot()
        assert slab.stats.as_dict() == lowered.stats.as_dict()
        assert slab.gather("A").tobytes() == lowered.gather("A").tobytes()


def _loop_ordinals(compiled):
    """stmt_id -> pre-order loop ordinal (stable across compiles, unlike
    the process-global statement ids)."""
    loops = [s for s in compiled.proc.all_stmts() if isinstance(s, LoopStmt)]
    return {loop.stmt_id: k for k, loop in enumerate(loops)}


def _reason(verdict):
    """A loop's verdict as text: "ok" for a plan."""
    return verdict if isinstance(verdict, str) else "ok"


def _ordinal_verdicts(compiled):
    """The slab report keyed by loop ordinal, statement ids masked."""
    return {
        f"L{k:02d}": re.sub(r"S\d+", "S#", _reason(compiled.slabs.verdicts[sid]))
        for sid, k in _loop_ordinals(compiled).items()
    }


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
    rank's data and validity."""
    store = sim.store
    out = [sim.clocks.snapshot(), sim.stats.as_dict()]
    for name in sorted(store.data):
        out.append((store.data[name].tobytes(), store.valid[name].tobytes()))
    out.append((store.scalars, store.scalar_valid))
    return out


#: kernel -> (source, processors, verdict by loop ordinal, then by loop
#: ordinal under tier="slab": takeovers, replayed fetch elements and the
#: message runs they were replayed as)
GOLDEN = {
    "dgefa": (
        dgefa_source(n=12, procs=4), 4,
        {
            "L00": "IF branch contains LoopStmt",
            "L01": "ok",
            "L02": "ok",
            "L03": "ok",
            "L04": "ok",
            "L05": "ok",
        },
        {"L01": 11, "L02": 11, "L03": 11, "L04": 11},
        # (the row swap's one fetch per reading rank: its pivot row L)
        {"L02": 30, "L04": 194},
        {"L02": 30, "L04": 30},
    ),
    "tomcatv": (
        tomcatv_source(n=12, niter=2, procs=4), 4,
        {
            "L00": "more than one inner loop",
            "L01": "ok",
            "L02": "ok",
            "L03": "ok",
            "L04": "ok",
            "L05": "ok",
            "L06": "loop-carried dependence on D",
            "L07": "ok",
            "L08": "loop-carried dependence on RX",
            "L09": "ok",
            "L10": "ok",
        },
        {"L01": 2, "L03": 2, "L05": 2, "L07": 2, "L09": 2},
        {"L01": 264},
        {"L01": 12},
    ),
    # one rank: a nest's columns have no owner to be sliced by, so its
    # innermost loops are taken instead — the serial-axis nests (L05,
    # L07) are declined by their plans' executors, a verdict like the
    # others, not a bail at run time
    "tomcatv-p1": (
        tomcatv_source(n=12, niter=2, procs=1), 1,
        {
            "L00": "more than one inner loop",
            "L01": "S#: executor position is not a point",
            "L02": "ok",
            "L03": "S#: executor position is not a point",
            "L04": "ok",
            "L05": "executor position is not a point",
            "L06": "loop-carried dependence on D",
            "L07": "executor position is not a point",
            "L08": "loop-carried dependence on RX",
            "L09": "S#: executor position is not a point",
            "L10": "ok",
        },
        {"L02": 20, "L04": 20, "L10": 20},
        {},
        {},
    ),
    "appsp": (
        appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4), 4,
        {
            "L00": "more than one inner loop",
            "L01": "more than one inner loop",
            "L02": "grid is not one-dimensional",
            "L03": "ok",
            "L04": "grid is not one-dimensional",
            "L05": "ok",
            "L06": "inner body contains LoopStmt",
            "L07": "grid is not one-dimensional",
            "L08": "ok",
        },
        {"L03": 16, "L05": 12, "L08": 12},
        {"L05": 32, "L08": 16},
        {"L05": 4, "L08": 4},
    ),
}


class TestGoldenVerdicts:
    """The three paper kernels' classifier verdicts and the takeovers a
    slab run commits, pinned: a classifier change that silently routes
    a nest to tier 2 (or takes it at another level) fails here, not in
    a timing."""

    @pytest.mark.parametrize("kernel", sorted(GOLDEN))
    def test_verdicts_and_takeovers(self, kernel):
        source, procs, verdicts, takeovers, replayed, runs = GOLDEN[kernel]
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        assert _ordinal_verdicts(compiled) == verdicts
        metrics = Metrics()
        simulate(
            compiled, seeded_inputs(compiled.proc, 0), tier="slab",
            metrics=metrics,
        )
        assert _slab_counters(metrics, compiled, "takeover") == takeovers
        assert _slab_counters(metrics, compiled, "fetch_replay") == replayed
        assert _slab_counters(metrics, compiled, "fetch_runs") == runs
        assert _slab_counters(metrics, compiled, "fallback") == {}
        assert not [key for key in metrics.counters if key.startswith("slab.bail")]

    def test_tomcatv_residual_nest_is_taken_once_per_iteration(self):
        """One takeover of the ``j`` nest per ``it`` — its two ``MAX``
        updates fold inside it — none of its ``i`` loop."""
        niter = 3
        compiled = compile_source(
            tomcatv_source(n=12, niter=niter, procs=4),
            CompilerOptions(num_procs=4),
        )
        metrics = Metrics()
        simulate(
            compiled, seeded_inputs(compiled.proc, 0), tier="slab",
            metrics=metrics,
        )
        takeovers = _slab_counters(metrics, compiled, "takeover")
        assert takeovers["L03"] == niter
        assert "L04" not in takeovers

    @pytest.mark.parametrize("dist", ["BLOCK", "CYCLIC"])
    @pytest.mark.parametrize("update", [
        "S = S + 0.25 * B(i,j)",
        "S = (0.75 + 0.25 * B(i,j)) * S",
        "S = MAX(S, ABS(B(i,j)))",
        "S = MIN(A(i,j), S)",
    ])
    def test_a_flattened_nest_folds_inside_one_takeover(self, update, dist):
        compiled = compile_source(
            "PROGRAM R\n  PARAMETER (n = 9)\n  REAL A(n,n), B(n,n)\n  REAL S\n"
            "!HPF$ ALIGN (i,j) WITH A(i,j) :: B\n"
            f"!HPF$ DISTRIBUTE (*, {dist}) :: A\n  S = 1.5\n"
            "  DO j = 2, n - 1\n    DO i = n - 1, 2, -1\n"
            f"      A(i,j) = B(i - 1,j + 1) * 0.5\n      {update}\n"
            "    END DO\n  END DO\nEND PROGRAM\n",
            CompilerOptions(num_procs=3),
        )
        inputs = seeded_inputs(compiled.proc, 1)
        metrics = Metrics()
        slab = simulate(compiled, inputs, tier="slab", metrics=metrics)
        assert _slab_counters(metrics, compiled, "takeover") == {"L00": 1}
        assert _slab_counters(metrics, compiled, "fallback") == {}
        assert _state(slab) == _state(simulate(compiled, inputs, tier="lowered"))

    def test_dgefa_update_nest_is_taken_once_per_pivot(self):
        """n - 1 takeovers of the ``j`` nest, none of its ``i`` loop."""
        n = 12
        takeovers = GOLDEN["dgefa"][3]
        assert takeovers["L04"] == n - 1
        assert "L05" not in takeovers


def _hostile(case: str, n: int) -> np.ndarray:
    """A DGEFA input whose pivot searches meet ``case``: every pivot a
    tie (the first maximum wins under ``>``), an all-zero pivot column
    (``pmax`` stays 0, ``l = k``, the ``IF (pmax > 0)`` branch skips),
    NaN lanes (no comparison admits them) or infinite ones."""
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    if case == "ties":
        a = np.ones((n, n))
        a[::2] *= -1.0
        a[np.arange(n), np.arange(n)] += 0.5 * np.arange(n)
    elif case == "zero-column":
        a[:, 0] = 0.0
        a[2:, 3] = 0.0
    elif case == "nan":
        a[2, 0] = a[5, 1] = a[0, 3] = np.nan
    elif case == "inf":
        a[3, 0] = np.inf
        a[1, 2] = -np.inf
    return a


def _exact(state):
    """``_state`` with every scalar copy as its bits: NaN copies compare
    equal when they are the same NaN."""
    *rest, (scalars, valid) = state
    bits = {
        name: [v.hex() if isinstance(v, float) else v for v in values]
        for name, values in scalars.items()
    }
    return [*rest, (bits, valid)]


#: a MAXLOC over a BLOCK-distributed vector: every rank folds its own
#: lanes, and the last search is one lane
MAXLOC_SOURCE = """PROGRAM M
  PARAMETER (n = 10)
  REAL A(n), B(n), C(n)
  REAL s
  INTEGER l
!HPF$ ALIGN B(i) WITH A(i)
!HPF$ ALIGN C(i) WITH A(i)
!HPF$ DISTRIBUTE (BLOCK) :: A
  DO k = 1, n
    s = -1.0
    l = 0
    DO i = k, n
      IF (A(i) >= s) THEN
        s = A(i)
        l = i
      END IF
    END DO
    B(k) = l
    C(k) = s
  END DO
END PROGRAM
"""


class TestPivotStep:
    """DGEFA's pivot step on the slab plan: the pivot search (L01) as a
    masked MAXLOC fold, the row swap (L02) on column-owned lanes —
    exactly tier 2, and the reference's takeover exactly the walker."""

    CASES = ["ties", "zero-column", "nan", "inf"]

    @pytest.mark.parametrize("procs", [1, 3, 4, 16])
    @pytest.mark.parametrize("case", CASES)
    def test_masked_fold_matches_tier2(self, case, procs):
        n = 8
        compiled = compile_source(
            dgefa_source(n=n, procs=procs), CompilerOptions(num_procs=procs)
        )
        inputs = {"A": _hostile(case, n)}
        metrics = Metrics()
        slab = simulate(compiled, inputs, tier="slab", metrics=metrics)
        takeovers = _slab_counters(metrics, compiled, "takeover")
        assert takeovers["L01"] == n - 1
        assert _exact(_state(slab)) == _exact(
            _state(simulate(compiled, inputs, tier="lowered"))
        )

    @pytest.mark.parametrize("case", CASES)
    def test_reference_takeover_matches_the_walker(self, case):
        from repro.codegen.seq import SequentialInterpreter
        from repro.ir.build import parse_and_build

        n = 8
        proc = parse_and_build(dgefa_source(n=n, procs=4))
        runs = []
        for fast in (True, False):
            interp = SequentialInterpreter(proc, fast_path=fast)
            interp.store.set_array("A", _hostile(case, n))
            stats = interp.run()
            runs.append((
                interp.store.get_array("A").tobytes(),
                interp.store.get_array("AMD").tobytes(),
                stats.statements_executed, stats.loop_iterations,
            ))
            if fast:
                search = next(
                    loop for loop in proc.all_stmts()
                    if isinstance(loop, LoopStmt) and loop.var.name == "I"
                )
                assert not isinstance(
                    interp.hooks.vector.verdicts[search.stmt_id], str
                )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("procs", [1, 3, 4])
    def test_a_block_maxloc_folds_per_rank(self, procs):
        """Several ranks fold their own lanes, the last entry is one
        lane, ties go to the last maximum under ``>=``."""
        compiled = compile_source(
            MAXLOC_SOURCE, CompilerOptions(num_procs=procs)
        )
        a = np.asarray([0.5, 2.0, 2.0, -1.0, 2.0, 0.25, 1.5, 1.5, 0.0, 3.0])
        metrics = Metrics()
        slab = simulate(compiled, {"A": a}, tier="slab", metrics=metrics)
        assert _slab_counters(metrics, compiled, "takeover")["L01"] == 10
        assert _slab_counters(metrics, compiled, "fallback") == {}
        assert _exact(_state(slab)) == _exact(
            _state(simulate(compiled, {"A": a}, tier="lowered"))
        )
        assert slab.gather("B").tolist() == [10.0] * 10

    def test_row_swap_commits_with_the_pivot_on_the_diagonal(self):
        """A diagonally dominant input keeps every pivot on the
        diagonal: the swap's two stores name one element per lane
        (``l == k``), legal in per-iteration order, so L02 commits on
        every entry."""
        n = 12
        compiled = compile_source(
            dgefa_source(n=n, procs=4), CompilerOptions(num_procs=4)
        )
        inputs = dgefa_inputs(n)
        metrics = Metrics()
        slab = simulate(compiled, inputs, tier="slab", metrics=metrics)
        assert _slab_counters(metrics, compiled, "takeover")["L02"] == n - 1
        assert not [k for k in metrics.counters if k.startswith("slab.bail")]
        assert slab.gather("AMD").tolist() == list(range(1, n)) + [0.0]
        assert _state(slab) == _state(
            simulate(compiled, inputs, tier="lowered")
        )

    def test_auto_takes_the_whole_pivot_step(self):
        """The regression guard: at n=80 on 16 ranks the tier plan
        sends all four per-pivot nests to the slab engine, and
        per-statement execution is left to the outer loop's glue."""
        n = 80
        compiled = compile_source(
            dgefa_source(n=n, procs=16), CompilerOptions(num_procs=16)
        )
        sim = simulate(compiled, seeded_inputs(compiled.proc, 0), tier="auto")
        ordinals = _loop_ordinals(compiled)
        decided = {
            f"L{ordinals[sid]:02d}": choice
            for sid, choice in sim.tier_decisions.items()
        }
        assert decided == dict.fromkeys(["L01", "L02", "L03", "L04"], "slab")
        assert sim.slab_coverage >= 0.99
        assert sim.interp_instances <= 1500


KERNELS = {
    "tomcatv": lambda procs: tomcatv_source(n=12, niter=2, procs=procs),
    "dgefa": lambda procs: dgefa_source(n=12, procs=procs),
    "appsp": lambda procs: appsp_source(nx=6, ny=6, nz=6, niter=1, procs=procs),
}


class TestOneStorePerArray:
    """The takeover's memory operations address the ``(P, *shape)``
    buffers flat: ``rank * size + element``."""

    @pytest.mark.parametrize("procs", [1, 3, 16])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_kernel_memories_match_tier2(self, kernel, procs):
        """Every rank's data and validity bytes (and the clocks and
        traffic) after a slab run are tier 2's — the fuzz harness's
        memory digest, on the paper kernels."""
        compiled = compile_source(
            KERNELS[kernel](procs), CompilerOptions(num_procs=procs)
        )
        inputs = seeded_inputs(compiled.proc, 2)
        slab = simulate(compiled, inputs, tier="slab")
        lowered = simulate(compiled, inputs, tier="lowered")
        assert slab.slab_instances > 0
        assert _state(slab) == _state(lowered)

    @pytest.mark.parametrize("procs", [1, 4])
    @pytest.mark.parametrize("kernel", ["tomcatv", "dgefa"])
    def test_lane_addresses_are_rank_major_ravels(
        self, monkeypatch, kernel, procs
    ):
        """A reference's lane address is ``np.ravel_multi_index`` of its
        per-dimension offsets plus ``rank * size`` — in every pass of a
        serial axis (tomcatv's recurrences), with a lane-invariant
        subscript (DGEFA's pivot column), and on one rank."""
        from repro.codegen.veceval import _affine_vec
        from repro.machine.slabexec import _NestCtx

        seen = Counter()
        commit = _NestCtx.commit

        def checked(ctx):
            # (now: the walker's env moves on after the takeover)
            plan, dom = ctx.plan, ctx.dom
            outer = ctx.sub_env
            for ref_id, (symbol, forms) in plan.ref_forms.items():
                lanes = ctx.lanes_of[plan.ref_home[ref_id]]
                shape = [symbol.extent(d) for d in range(symbol.rank)]
                moves = ref_id in ctx.strides
                for t in {0, dom.serial - 1} if moves else {0}:
                    env = {**outer, **dom.binding(t)}
                    offsets = [
                        _affine_vec(form, lanes.vars, env) - symbol.dims[d][0]
                        for d, form in enumerate(forms)
                    ]
                    seen["invariant"] += any(np.ndim(o) == 0 for o in offsets)
                    seen["moving"] += moves and t > 0
                    element = np.ravel_multi_index(
                        [np.broadcast_to(o, lanes.n) for o in offsets], shape
                    )
                    assert np.array_equal(
                        ctx._at(ctx.elem, ref_id, t),
                        element if np.ndim(ctx.elem[ref_id]) else element[0],
                    )
                    assert np.array_equal(
                        ctx._at(ctx.addr, ref_id, t),
                        lanes.rank * int(np.prod(shape)) + element,
                    )
                    seen["refs"] += 1
            return commit(ctx)

        monkeypatch.setattr(_NestCtx, "commit", checked)
        compiled = compile_source(
            KERNELS[kernel](procs), CompilerOptions(num_procs=procs)
        )
        simulate(compiled, seeded_inputs(compiled.proc, 2), tier="slab")
        assert seen["refs"] > 0
        if kernel == "dgefa":
            assert seen["invariant"] > 0
        elif procs > 1:  # (one rank has no column owner: no nest is taken)
            assert seen["moving"] > 0


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
        lowered = simulate(compiled, inputs, tier="lowered")
        assert _state(slab) == _state(lowered)
        # the three ranks' clocks really are coupled through rank 1
        times = slab.clocks.snapshot()["time"]
        assert times[2] > times[0] > 0.0

    @pytest.mark.parametrize(
        "columns, holder, fetched, lost",
        [("5, 6", 2, 8, [0]), ("4, 5", 0, 8, [2])],
        ids=["from-rank-2", "from-rank-0"],
    )
    def test_fetch_from_a_non_owner_copy(self, columns, holder, fetched, lost):
        """Column 5 of P has lost its owner's copy (rank 1) and lives
        on another rank: the one fetcher — rank 1, running column 5 —
        finds it on the lowest rank that holds a valid copy, a
        non-owner, like tier 2."""
        source = SOURCE_BETWEEN.replace("4, 6", columns)
        compiled = compile_source(source, CompilerOptions(num_procs=3))
        inputs = seeded_inputs(compiled.proc, 1)

        def run(tier, metrics=None):
            sim = SPMDSimulator(compiled, tier=tier, metrics=metrics)
            for name, values in inputs.items():
                sim.set_array(name, values)
            sim.store.valid["P"][1, :, 4] = False
            sim.store.valid["P"][holder, :, 4] = True
            sim.run()
            return sim

        metrics = Metrics()
        slab = run("slab", metrics)
        assert _slab_counters(metrics, compiled, "takeover") == {"L00": 1}
        assert _slab_counters(metrics, compiled, "fetch_replay") == {"L00": fetched}
        assert slab.stats.messages == 1
        comm = slab.clocks.snapshot()["comm_time"]
        assert comm[holder] > 0.0 and comm[1] > 0.0
        assert [comm[r] for r in lost] == [0.0]
        assert slab.store.valid["P"][1, :, 4].all()
        assert _state(slab) == _state(run("lowered"))

    def test_store_invalidates_a_rank_running_another_column(self):
        """Ranks 1 and 2 hold copies of column 4 of A, which rank 0
        stores in the same takeover in which they run columns 5 and 6:
        the store leaves the element with its writer alone."""
        compiled = compile_source(SOURCE_BETWEEN, CompilerOptions(num_procs=3))
        inputs = seeded_inputs(compiled.proc, 1)

        def run(tier, metrics=None):
            sim = SPMDSimulator(compiled, tier=tier, metrics=metrics)
            for name, values in inputs.items():
                sim.set_array(name, values)
            sim.store.valid["A"][1:, :, 3] = True
            sim.run()
            return sim

        metrics = Metrics()
        slab = run("slab", metrics)
        assert _slab_counters(metrics, compiled, "takeover") == {"L00": 1}
        assert slab.store.valid["A"][:, :, 3].all(axis=1).tolist() == [
            True, False, False,
        ]
        assert not slab.store.valid["A"][1:, :, 3].any()
        assert slab.store.valid["A"][:, 0, 3:6].tolist() == [
            [True, False, False], [False, True, False], [False, False, True],
        ]
        assert _state(slab) == _state(run("lowered"))

    def test_lane_varying_fetch_key_bails_without_a_trace(self, monkeypatch):
        """A transfer placed inside the taken nest keys its messages on
        the lane variables; the schedule declines — for the ``j`` nest
        and then for its ``i`` loop — before anything is mutated, and
        tier 2 replays the nest exactly."""
        from repro.machine import simulator

        # (the one lookup every tier's keys are built from)
        monkeypatch.setattr(
            simulator, "hoisted_loop_vars", lambda event, stmt: ("J", "I")
        )
        compiled, inputs, slab, metrics = self._run(SOURCE_BETWEEN, 3)
        assert metrics.counters["slab.bail[fetch key varies per lane]"] >= 1
        # only rank 1's own column — no fetch, no key — is still taken
        assert _slab_counters(metrics, compiled, "takeover") == {"L01": 1}
        assert _slab_counters(metrics, compiled, "fetch_replay") == {}
        lowered = simulate(compiled, inputs, tier="lowered")
        assert _state(slab) == _state(lowered)

    @pytest.mark.parametrize(
        "source, procs, lookups, runs, replayed, elements, messages",
        [
            (dgefa_source(n=24, procs=4), 4, 23, 132, 890, 959, 201),
            (SOURCE_BETWEEN, 3, 1, 2, 16, 16, 2),
        ],
        ids=["dgefa", "source-between"],
    )
    def test_replay_work_counts_reads_and_runs(
        self, monkeypatch, source, procs, lookups, runs, replayed, elements,
        messages,
    ):
        """The Python work of a takeover's communication, as counts that
        repeat exactly: one source lookup per fetching read — not one
        per reading rank — and at most one message-charging call per
        message run — not one per element."""
        from repro.machine.slabexec import _FetchLog
        from repro.machine.stats import Clocks

        calls = Counter()
        replaying = []

        def count(owner, name, label, always):
            inner = getattr(owner, name)

            def counted(self, *args):
                if always or replaying:
                    calls[label] += 1
                return inner(self, *args)

            monkeypatch.setattr(owner, name, counted)

        def replay(self, *args, inner=_FetchLog.commit):
            replaying.append(self)
            try:
                return inner(self, *args)
            finally:
                replaying.pop()

        count(_FetchLog, "_fetch_read", "lookups", True)
        for name in (
            "charge_message", "charge_message_amortized", "charge_message_run"
        ):
            count(Clocks, name, "charges", False)
        monkeypatch.setattr(_FetchLog, "commit", replay)
        compiled, inputs, slab, metrics = self._run(source, procs)
        assert calls["lookups"] == lookups
        assert 0 < calls["charges"] <= runs
        fetch_runs = _slab_counters(metrics, compiled, "fetch_runs")
        assert sum(fetch_runs.values()) == runs
        fetch_replay = _slab_counters(metrics, compiled, "fetch_replay")
        assert sum(fetch_replay.values()) == replayed
        assert (slab.stats.elements, slab.stats.messages) == (
            elements, messages,
        )

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


class TestShapeBuilds:
    """A nest's shape is built at its first entry of a run, once per
    fixed executor set; every later entry the build covers is a slice
    of it, never a rebuild."""

    def test_dgefa_builds_each_nest_once_per_executor_set(self):
        """DGEFA n = 80, P = 16: 79 pivot steps enter four nests (316
        entries).  The swap and the update build once; the pivot search
        and the scale, run by the owner of column k, once per owner."""
        n, procs = 80, 16
        compiled = compile_source(
            dgefa_source(n=n, procs=procs), CompilerOptions(num_procs=procs)
        )
        metrics = Metrics()
        simulate(
            compiled, seeded_inputs(compiled.proc, 0), tier="auto",
            metrics=metrics,
        )
        assert _slab_counters(metrics, compiled, "takeover") == {
            "L01": 79, "L02": 79, "L03": 79, "L04": 79,
        }
        assert _slab_counters(metrics, compiled, "shape_build") == {
            "L01": 16, "L02": 1, "L03": 16, "L04": 1,
        }

    @pytest.mark.parametrize("dist", ["CYCLIC", "BLOCK"])
    @pytest.mark.parametrize("procs", [1, 3, 4])
    def test_sliced_domains_equal_their_builds(self, monkeypatch, dist, procs):
        """Every sliced domain of a DGEFA run equals the domain built
        afresh for its entry: columns, instances, layouts, lanes at
        both levels and the ranks' tapes."""
        from repro.machine import slabexec

        n = 14
        source = dgefa_source(n=n, procs=procs).replace("CYCLIC", dist)
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        sliced = []
        shape = slabexec.NestPlan._shape

        def tapes(plan, dom, sim):
            ctx = types.SimpleNamespace(plan=plan, dom=dom, sim=sim)
            return slabexec._NestCtx._rank_tapes(ctx)

        def checked(self, slab, *entry):
            dom = shape(self, slab, *entry)
            if dom is None or dom is slab.builds[self, entry[-1]]:
                return dom
            # a slice: compared while it holds its lanes, against the
            # entry built afresh by an executor holding no build
            alone = types.SimpleNamespace(
                builds={}, shape_key=None, shape=None, sim=slab.sim
            )
            built = shape(self, alone, *entry)
            for name in ("jvec", "low", "trips", "widths", "count", "base"):
                assert np.array_equal(getattr(dom, name), getattr(built, name))
            assert (dom.step, dom.serial, dom.participants) == (
                built.step, built.serial, built.participants
            )
            for mine, theirs in zip(dom.lanes_of, built.lanes_of):
                assert np.array_equal(mine.runs, theirs.runs)
                for name in ("rank", "col", "up", "tw"):
                    a, b = getattr(mine, name), getattr(theirs, name)
                    assert (a is None) == (b is None)
                    assert a is None or np.array_equal(a, b)
                assert mine.vars.keys() == theirs.vars.keys()
                for var in mine.vars:
                    assert np.array_equal(mine.vars[var], theirs.vars[var])
                assert mine.slices == theirs.slices
            for a, b in zip(
                tapes(self, dom, slab.sim), tapes(self, built, slab.sim)
            ):
                assert np.array_equal(a, b)
            sliced.append(dom)
            return dom

        monkeypatch.setattr(slabexec.NestPlan, "_shape", checked)
        simulate(compiled, seeded_inputs(compiled.proc, 0), tier="slab")
        assert sliced
