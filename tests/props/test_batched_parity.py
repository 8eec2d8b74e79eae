"""Property: the batched sweep fast path is byte-for-bit invisible.

Machine parameters are *write-only* during a simulated run — they price
the virtual clocks but never steer control flow, fetch schedules, or
tier decisions — so a lane-vector simulation over N machine variants
must reproduce each variant's dedicated scalar run exactly.  These
tests byte-compare (canonical JSON) the batched sweep's per-lane
records against per-point ``tier="auto"`` simulations for the three
paper kernels over a ≥7-point grid each, and a hypothesis property
replays drawn charge scripts and whole simulations on the one
``Clocks`` class over a scalar model and over a lane-stacked machine
with randomized parameters."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import CompilerOptions, compile_source
from repro.machine.batchexec import VectorMachine
from repro.machine.simulator import simulate
from repro.machine.stats import Clocks
from repro.model import SP2, MachineModel
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.sweep import SweepSpec, run_sweep

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
SLOW = dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6)
WAN = dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6)

#: program name -> (source builder, procs values); each grid is
#: procs x machines >= 7 points (the ISSUE's parity floor)
GRIDS = {
    "tomcatv": (lambda p: tomcatv_source(n=10, niter=1, procs=p), (1, 2, 4)),
    "dgefa": (lambda p: dgefa_source(n=10, procs=p), (1, 2, 4)),
    "appsp": (
        lambda p: appsp_source(nx=8, ny=8, nz=8, niter=1, procs=p),
        (2, 4),
    ),
}
MACHINES = (SP2, FAST, SLOW, WAN)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _reference_stats(source: str, options: CompilerOptions, seed: int):
    """What one dedicated scalar grid point produces: fresh compile,
    deterministic inputs, tier="auto" simulation."""
    compiled = compile_source(source, options)
    rng = np.random.default_rng(seed)
    inputs = {
        s.name: rng.uniform(0.5, 1.5, tuple(s.extent(d) for d in range(s.rank)))
        for s in compiled.proc.symbols.arrays()
    }
    sim = simulate(compiled, inputs, tier="auto")
    return sim.canonical_stats(), sim.elapsed, sim.stats.messages


@pytest.mark.parametrize("program", sorted(GRIDS))
def test_batched_sweep_matches_per_point_simulation(program):
    builder, procs = GRIDS[program]
    spec = SweepSpec(
        programs={program: builder},
        procs=procs,
        axes={"machine": MACHINES},
        mode="simulate",
        seed=3,
    )
    jobs = spec.jobs()
    assert len(jobs) >= 7
    results = run_sweep(spec, workers=0, mode="batched")
    assert [r.label for r in results] == [j.label for j in jobs]
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.worker == "batched"
        stats, elapsed, messages = _reference_stats(
            job.source, job.options, job.seed
        )
        assert _canonical(result.canonical_stats) == _canonical(stats)
        assert result.elapsed == elapsed  # bitwise, not approx
        assert result.messages == messages


COMPILED = None


def _compiled():
    """One shared tomcatv compile for the hypothesis property (machine
    parameters cannot influence compilation)."""
    global COMPILED
    if COMPILED is None:
        COMPILED = compile_source(
            tomcatv_source(n=8, niter=1, procs=2),
            CompilerOptions(num_procs=2),
        )
    return COMPILED


def _inputs(compiled, seed=11):
    rng = np.random.default_rng(seed)
    return {
        s.name: rng.uniform(0.5, 1.5, tuple(s.extent(d) for d in range(s.rank)))
        for s in compiled.proc.symbols.arrays()
    }


@st.composite
def machine_models(draw):
    return MachineModel(
        name="drawn",
        alpha=draw(st.floats(min_value=1e-9, max_value=1e-2)),
        beta=draw(st.floats(min_value=1e-10, max_value=1e-5)),
        flop_time=draw(st.floats(min_value=1e-10, max_value=1e-6)),
        stmt_overhead=draw(st.floats(min_value=0.0, max_value=1e-6)),
    )


RANKS = 4
_rank = st.integers(0, RANKS - 1)
_elements = st.integers(1, 5000)

#: one charge: every entry point of ``Clocks`` the engines drive, over
#: the argument shapes they produce — collectives over any rank subset
#: (the empty and one-rank ones return early), tapes that are empty,
#: one entry long, and indexed into repeated statement sequences
charge_ops = st.one_of(
    st.tuples(st.just("compute"), _rank, st.integers(0, 40)),
    st.tuples(st.just("message"), _rank, _rank, _elements),
    st.tuples(
        st.just("amortized"), _rank, _rank, _elements, st.booleans()
    ),
    st.tuples(
        st.just("collective"),
        st.lists(_rank, unique=True, max_size=RANKS),
        _elements,
        st.sampled_from(["reduce", "broadcast"]),
    ),
    st.tuples(
        st.just("tape"),
        _rank,
        st.lists(st.integers(0, 40), max_size=3),
        st.integers(0, 3),
    ),
)


def _replay(clocks, script):
    machine = clocks.machine
    for kind, *args in script:
        if kind == "compute":
            clocks.charge_compute(*args)
        elif kind == "message":
            clocks.charge_message(*args)
        elif kind == "amortized":
            clocks.charge_message_amortized(*args)
        elif kind == "collective":
            clocks.charge_collective(*args)
        else:
            rank, flops, repeats = args
            unit = clocks.tape([machine.compute_time(f, 1) for f in flops])
            steps = np.tile(np.arange(len(flops)), repeats + 1)
            clocks.charge_compute_tape(rank, unit[steps])
            clocks.charge_compute_tape(rank, clocks.tape([]))


@settings(max_examples=20, deadline=None)
@given(
    models=st.lists(machine_models(), min_size=1, max_size=4),
    script=st.lists(charge_ops, max_size=30),
)
def test_lane_vector_clocks_match_scalar_runs(models, script):
    # the one Clocks class, replaying one script over a k-lane machine
    # and over each scalar model: lane m is bitwise scalar run m
    lanes = Clocks(RANKS, VectorMachine(models))
    _replay(lanes, script)
    for lane, model in enumerate(models):
        scalar = Clocks(RANKS, model)
        _replay(scalar, script)
        assert _canonical(lanes.lane_snapshot(lane)) == _canonical(
            scalar.snapshot()
        )
        assert lanes.lane_elapsed(lane) == scalar.elapsed
        assert float(lanes.total_compute[lane]) == scalar.total_compute
        assert float(lanes.total_comm[lane]) == scalar.total_comm

    # and the same through whole simulations
    compiled = _compiled()
    sim = simulate(
        compiled, _inputs(compiled), machine=VectorMachine(models),
        tier="auto",
    )
    for lane, model in enumerate(models):
        scalar = simulate(
            compiled, _inputs(compiled), machine=model, tier="auto"
        )
        assert _canonical(sim.clocks.lane_snapshot(lane)) == _canonical(
            scalar.canonical_stats()["clocks"]
        )
        assert sim.clocks.lane_elapsed(lane) == scalar.elapsed
