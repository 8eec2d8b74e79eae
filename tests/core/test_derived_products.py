"""``CompiledProgram.lowering`` / ``.slabs`` are derived on first read,
memoized against ``proc.ir_epoch``, and never pickled: estimate
journeys build neither, simulate journeys build each once — and with
``.slabs`` one priced ``NestPlan`` per loop that has one — and a stale
or unpickled program prices ``tier="auto"`` again instead of silently
running as ``tier="slab"``."""

import pickle

import pytest

from repro.cli import main
from repro.codegen.seq import seeded_inputs
from repro.core import CompilerOptions, compile_source
from repro.machine import lowering, simulate, slabexec
from repro.machine.lowering import FastPath
from repro.machine.simulator import SPMDSimulator
from repro.obs import Metrics
from repro.programs import dgefa_source
from repro.report.tables import table1_tomcatv, table2_dgefa, table3_appsp

DERIVED = ("lowering", "slabexec")
#: the derived products, and the slab plans ``slabexec`` builds
BUILT = (*DERIVED, "plans")
NOTHING = dict.fromkeys(BUILT, 0)


@pytest.fixture
def builds(monkeypatch):
    """Counts every construction of a derived product, and of a slab
    plan."""
    counts = dict(NOTHING)
    lower = lowering.lower_procedure
    classify = slabexec.classify_procedure
    nest_plan = slabexec.NestPlan.__init__

    def counting_lower(proc):
        counts["lowering"] += 1
        return lower(proc)

    def counting_classify(*args, **kwargs):
        counts["slabexec"] += 1
        return classify(*args, **kwargs)

    def counting_nest_plan(self, *args):
        counts["plans"] += 1
        nest_plan(self, *args)

    monkeypatch.setattr(lowering, "lower_procedure", counting_lower)
    monkeypatch.setattr(slabexec.NestPlan, "__init__", counting_nest_plan)
    monkeypatch.setattr(slabexec, "classify_procedure", counting_classify)
    return lambda: dict(counts)


def _dgefa():
    """DGEFA at a size where the plan declines two of the three
    eligible nests, so ``auto`` and ``slab`` visibly differ."""
    compiled = compile_source(
        dgefa_source(n=12, procs=4), CompilerOptions(num_procs=4)
    )
    return compiled, seeded_inputs(compiled.proc, 0)


def _auto_run(compiled, inputs):
    metrics = Metrics()
    sim = simulate(compiled, inputs, tier="auto", metrics=metrics)
    decisions = {
        key: value
        for key, value in {**metrics.counters, **metrics.gauges}.items()
        if key.startswith("tier.decision[")
    }
    return sim.canonical_stats()["tiers"], decisions


class TestEstimateJourneysBuildNothing:
    def test_tables(self, builds):
        table1_tomcatv(n=33, niter=1, procs=(1, 4))
        table2_dgefa(n=40, procs=(2, 4))
        table3_appsp(n=8, niter=1, procs=(2, 4))
        assert builds() == NOTHING

    @pytest.mark.parametrize(
        "argv", (["compile", "--timings"], ["estimate", "--procs", "1", "4"])
    )
    def test_cli(self, argv, builds, tmp_path, capsys):
        program = tmp_path / "dgefa.hpf"
        program.write_text(dgefa_source(n=12, procs=4))
        assert main([argv[0], str(program), *argv[1:]]) == 0
        assert builds() == NOTHING
        out = capsys.readouterr().out
        if argv[0] == "compile":
            assert "comm-analysis" in out
            assert not any(row in out for row in DERIVED)


class TestSimulateBuildsEachOnce:
    @pytest.mark.parametrize("state", ("fresh", "unpickled", "stale-epoch"))
    def test_one_build_per_product(self, state, builds):
        compiled, inputs = _dgefa()
        if state == "unpickled":
            compiled = pickle.loads(pickle.dumps(compiled))
        elif state == "stale-epoch":
            simulate(compiled, inputs, tier="auto")
            compiled.proc.finalize()
        before = builds()
        calls = {
            row: timing.calls for row, timing in compiled.timings.passes.items()
        }
        assert set(DERIVED) & set(calls) == (
            set(DERIVED) if state == "stale-epoch" else set()
        )
        simulate(compiled, inputs, tier="auto")
        simulate(compiled, inputs, tier="auto")
        after = builds()
        # one plan per loop with an "ok" verdict, built with the report
        # and prepared by both runs
        plans = len(compiled.slabs.eligible_loops())
        assert plans == 5
        assert {row: after[row] - before[row] for row in BUILT} == {
            **dict.fromkeys(DERIVED, 1), "plans": plans,
        }
        for row in DERIVED:
            assert compiled.timings.passes[row].calls == calls.get(row, 0) + 1
        assert FastPath(SPMDSimulator(compiled)).lowered is compiled.lowering
        assert compiled.lowering.ir_epoch == compiled.proc.ir_epoch

    def test_forced_tiers_never_plan(self, builds):
        compiled, inputs = _dgefa()
        simulate(compiled, inputs, tier="lowered")
        assert builds() == {**NOTHING, "lowering": 1}
        simulate(compiled, inputs, tier="slab")
        assert builds() == {**NOTHING, "lowering": 1, "slabexec": 1, "plans": 5}

    def test_derived_state_never_reaches_a_pickle(self):
        compiled, inputs = _dgefa()
        before = pickle.dumps(compiled)
        simulate(compiled, inputs, tier="auto")
        assert set(DERIVED) <= set(compiled.timings.passes)
        assert pickle.dumps(compiled) == before
        clone = pickle.loads(before)
        assert clone._derived == {}
        assert not set(DERIVED) & set(clone.timings.passes)


class TestAutoPlansAgain:
    """``tier="auto"`` used to take *every* eligible nest — run as
    ``tier="slab"`` while reporting ``auto`` — whenever the compiled
    program's plan was stale or missing."""

    def test_after_the_ir_epoch_moved(self):
        compiled, inputs = _dgefa()
        fresh = _auto_run(compiled, inputs)
        assert "lowered" in fresh[0].values()
        compiled.proc.finalize()
        assert _auto_run(compiled, inputs) == fresh

    def test_after_a_pickle_round_trip(self):
        compiled, inputs = _dgefa()
        fresh = _auto_run(compiled, inputs)
        clone = pickle.loads(pickle.dumps(compiled))
        assert _auto_run(clone, seeded_inputs(clone.proc, 0)) == fresh
